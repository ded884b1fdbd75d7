//! The multi-source model: every record originates from one of >500,000
//! sources — a testimony submitter (a person who filed Pages of Testimony,
//! identified only by name and city, Section 2) or a victim list (transport
//! manifests, camp card files, ghetto registers; 16,656 lists in the full
//! dataset).


/// Dense identifier of a source within a [`crate::Dataset`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SourceId(pub u32);

impl SourceId {
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What kind of source a record came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceKind {
    /// A Page of Testimony submitter. Submitters have no unique id in the
    /// original database; they are grouped by first name, last name and city
    /// (yielding 514,251 distinct submitters).
    Testimony { first_name: String, last_name: String, city: String },
    /// A victim list extracted from archive material.
    List { description: String },
}

/// A record source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Source {
    pub id: SourceId,
    pub kind: SourceKind,
}

impl Source {
    #[must_use]
    pub fn testimony(id: SourceId, first: &str, last: &str, city: &str) -> Self {
        Source {
            id,
            kind: SourceKind::Testimony {
                first_name: first.to_owned(),
                last_name: last.to_owned(),
                city: city.to_owned(),
            },
        }
    }

    #[must_use]
    pub fn list(id: SourceId, description: &str) -> Self {
        Source { id, kind: SourceKind::List { description: description.to_owned() } }
    }

    /// True for Pages of Testimony (about a third of the full dataset).
    #[must_use]
    pub fn is_testimony(&self) -> bool {
        matches!(self.kind, SourceKind::Testimony { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testimony_and_list_constructors() {
        let t = Source::testimony(SourceId(0), "Massimo", "Foa", "Cuorgne");
        assert!(t.is_testimony());
        let l = Source::list(SourceId(1), "Drancy to Auschwitz deportation list");
        assert!(!l.is_testimony());
    }

    #[test]
    fn source_id_index() {
        assert_eq!(SourceId(42).index(), 42);
    }
}
