//! CSV interchange for victim-report datasets.
//!
//! The flat format mirrors the public `yv-er` release the paper points at
//! (a record per row, multi-values `;`-separated, ground-truth `person_id`
//! in the last column when known). [`write_dataset`] and [`read_dataset`]
//! round-trip everything the similarity features consume, so the toolkit
//! can run on user-supplied data instead of the synthetic generator.
//!
//! Columns:
//!
//! ```text
//! book_id,source,first_names,last_names,gender,birth_day,birth_month,
//! birth_year,father,mother,spouse,maiden,mothers_maiden,profession,
//! birth_city,permanent_city,wartime_city,death_city,person_id
//! ```
//!
//! `gender` is the 0/1 code; empty cells are missing values; `person_id`
//! may be empty throughout (no ground truth).

#![deny(clippy::cast_possible_truncation)]

use crate::field::{DateParts, Gender, Place, PlaceType};
use crate::record::RecordBuilder;
use crate::schema::Dataset;
use crate::source::{Source, SourceId};
use std::collections::HashMap;

/// The canonical header row.
pub const HEADER: &str = "book_id,source,first_names,last_names,gender,birth_day,birth_month,\
birth_year,father,mother,spouse,maiden,mothers_maiden,profession,\
birth_city,permanent_city,wartime_city,death_city,person_id";

/// Errors raised while reading.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsvError {
    MissingHeader,
    WrongHeader(String),
    Row { line: usize, problem: String },
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::MissingHeader => write!(f, "empty input: no header row"),
            CsvError::WrongHeader(h) => write!(f, "unexpected header: {h}"),
            CsvError::Row { line, problem } => write!(f, "line {line}: {problem}"),
        }
    }
}

impl std::error::Error for CsvError {}

/// Quote a field when needed.
fn quote(value: &str) -> String {
    if value.contains([',', '"', '\n']) {
        format!("\"{}\"", value.replace('"', "\"\""))
    } else {
        value.to_owned()
    }
}

/// Split one CSV line honoring double-quote escaping.
fn split_line(line: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        match (c, in_quotes) {
            ('"', false) => in_quotes = true,
            ('"', true) => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    cur.push('"');
                } else {
                    in_quotes = false;
                }
            }
            (',', false) => {
                fields.push(std::mem::take(&mut cur));
            }
            (c, _) => cur.push(c),
        }
    }
    fields.push(cur);
    fields
}

/// Serialize a dataset (and optional per-record ground truth) to CSV.
#[must_use]
pub fn write_dataset(ds: &Dataset, truth: Option<&[u64]>) -> String {
    let mut out = String::with_capacity(ds.len() * 96);
    out.push_str(HEADER);
    out.push('\n');
    for rid in ds.record_ids() {
        let r = ds.record(rid);
        let city =
            |ty: PlaceType| r.place(ty).and_then(|p| p.city.clone()).unwrap_or_default();
        let opt = |v: &Option<String>| v.clone().unwrap_or_default();
        let cells = [
            r.book_id.to_string(),
            r.source.0.to_string(),
            quote(&r.first_names.join(";")),
            quote(&r.last_names.join(";")),
            r.gender.map_or(String::new(), |g| g.code().to_string()),
            r.birth.day.map_or(String::new(), |d| d.to_string()),
            r.birth.month.map_or(String::new(), |m| m.to_string()),
            r.birth.year.map_or(String::new(), |y| y.to_string()),
            quote(&opt(&r.father_name)),
            quote(&opt(&r.mother_name)),
            quote(&opt(&r.spouse_name)),
            quote(&opt(&r.maiden_name)),
            quote(&opt(&r.mothers_maiden)),
            quote(&opt(&r.profession)),
            quote(&city(PlaceType::Birth)),
            quote(&city(PlaceType::Permanent)),
            quote(&city(PlaceType::Wartime)),
            quote(&city(PlaceType::Death)),
            truth.map_or(String::new(), |t| t[rid.index()].to_string()),
        ];
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    out
}

/// The unsigned number in column `idx`, `None` when the column is empty.
/// One that does not parse, or that the field's type cannot hold, is
/// refused — never wrapped into a value nobody wrote.
fn number<T: TryFrom<u64>>(
    fields: &[String],
    idx: usize,
    line: usize,
    what: &str,
) -> Result<Option<T>, CsvError> {
    let v = fields[idx].trim();
    if v.is_empty() {
        return Ok(None);
    }
    v.parse::<u64>()
        .ok()
        .and_then(|n| T::try_from(n).ok())
        .map(Some)
        .ok_or_else(|| CsvError::Row { line, problem: format!("bad {what}: '{v}'") })
}

/// Parse a CSV export back into a dataset. Sources are reconstructed as
/// anonymous lists keyed by the `source` column (the export does not carry
/// submitter metadata). Returns the dataset and, when the `person_id`
/// column is populated, the per-record ground truth.
pub fn read_dataset(text: &str) -> Result<(Dataset, Option<Vec<u64>>), CsvError> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or(CsvError::MissingHeader)?;
    if header.trim() != HEADER {
        return Err(CsvError::WrongHeader(header.to_owned()));
    }
    let mut ds = Dataset::new();
    let mut source_map: HashMap<u32, SourceId> = HashMap::new();
    let mut truth: Vec<u64> = Vec::new();
    let mut any_truth = false;
    for (no, line) in lines {
        if line.trim().is_empty() {
            continue;
        }
        let fields = split_line(line);
        let line_no = no + 1;
        if fields.len() != 19 {
            return Err(CsvError::Row {
                line: line_no,
                problem: format!("expected 19 columns, found {}", fields.len()),
            });
        }
        let book_id = number(&fields, 0, line_no, "book_id")?
            .ok_or(CsvError::Row { line: line_no, problem: "missing book_id".to_owned() })?;
        let raw_source: u32 = number(&fields, 1, line_no, "source")?.unwrap_or(0);
        let source = *source_map.entry(raw_source).or_insert_with(|| {
            ds.add_source(Source::list(SourceId(0), &format!("imported source {raw_source}")))
        });
        let mut b = RecordBuilder::new(book_id, source);
        for name in fields[2].split(';').filter(|s| !s.trim().is_empty()) {
            b = b.first_name(name.trim());
        }
        for name in fields[3].split(';').filter(|s| !s.trim().is_empty()) {
            b = b.last_name(name.trim());
        }
        if let Some(code) = number(&fields, 4, line_no, "gender")? {
            let gender = Gender::from_code(code).ok_or(CsvError::Row {
                line: line_no,
                problem: format!("bad gender code {code}"),
            })?;
            b = b.gender(gender);
        }
        let birth = DateParts {
            day: number(&fields, 5, line_no, "birth_day")?,
            month: number(&fields, 6, line_no, "birth_month")?,
            year: number(&fields, 7, line_no, "birth_year")?,
        };
        if !birth.is_empty() {
            b = b.birth(birth);
        }
        let text_field = |idx: usize| {
            let v = fields[idx].trim();
            (!v.is_empty()).then(|| v.to_owned())
        };
        if let Some(v) = text_field(8) {
            b = b.father_name(v);
        }
        if let Some(v) = text_field(9) {
            b = b.mother_name(v);
        }
        if let Some(v) = text_field(10) {
            b = b.spouse_name(v);
        }
        if let Some(v) = text_field(11) {
            b = b.maiden_name(v);
        }
        if let Some(v) = text_field(12) {
            b = b.mothers_maiden(v);
        }
        if let Some(v) = text_field(13) {
            b = b.profession(v);
        }
        for (idx, ty) in [
            (14, PlaceType::Birth),
            (15, PlaceType::Permanent),
            (16, PlaceType::Wartime),
            (17, PlaceType::Death),
        ] {
            if let Some(city) = text_field(idx) {
                b = b.place(ty, Place { city: Some(city), ..Place::default() });
            }
        }
        ds.add_record(b.build());
        match number(&fields, 18, line_no, "person_id")? {
            Some(pid) => {
                any_truth = true;
                truth.push(pid);
            }
            None => truth.push(u64::MAX),
        }
    }
    Ok((ds, any_truth.then_some(truth)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::GeoPoint;

    fn sample_dataset() -> (Dataset, Vec<u64>) {
        let mut ds = Dataset::new();
        let s0 = ds.add_source(Source::list(SourceId(0), "a"));
        let s1 = ds.add_source(Source::testimony(SourceId(0), "M", "Foa", "Cuorgne"));
        ds.add_record(
            RecordBuilder::new(1_059_654, s0)
                .first_name("Guido")
                .last_name("Foa")
                .gender(Gender::Male)
                .birth(DateParts::full(18, 11, 1920))
                .father_name("Donato")
                .place(
                    PlaceType::Birth,
                    Place::full("Torino", "Torino", "Piemonte", "Italy", GeoPoint::new(45.0, 7.7)),
                )
                .build(),
        );
        ds.add_record(
            RecordBuilder::new(1_028_769, s1)
                .first_name("Guido")
                .first_name("Gui, \"do\"")
                .last_name("Foy")
                .build(),
        );
        (ds, vec![7, 7])
    }

    #[test]
    fn round_trip_preserves_comparable_fields() {
        let (ds, truth) = sample_dataset();
        let text = write_dataset(&ds, Some(&truth));
        let (loaded, loaded_truth) = read_dataset(&text).expect("round trip");
        assert_eq!(loaded.len(), ds.len());
        assert_eq!(loaded_truth, Some(truth));
        let a = loaded.record(crate::RecordId(0));
        assert_eq!(a.book_id, 1_059_654);
        assert_eq!(a.first_names, vec!["Guido"]);
        assert_eq!(a.gender, Some(Gender::Male));
        assert_eq!(a.birth, DateParts::full(18, 11, 1920));
        assert_eq!(a.father_name.as_deref(), Some("Donato"));
        assert_eq!(
            a.place(PlaceType::Birth).and_then(|p| p.city.as_deref()),
            Some("Torino")
        );
        // Quoted multi-value with comma and escaped quotes survives.
        let b = loaded.record(crate::RecordId(1));
        assert_eq!(b.first_names, vec!["Guido", "Gui, \"do\""]);
        // Distinct sources stay distinct.
        assert_ne!(a.source, b.source);
    }

    #[test]
    fn truth_column_is_optional() {
        let (ds, _) = sample_dataset();
        let text = write_dataset(&ds, None);
        let (_, truth) = read_dataset(&text).expect("parse");
        assert_eq!(truth, None);
    }

    #[test]
    fn header_is_validated() {
        assert!(matches!(read_dataset(""), Err(CsvError::MissingHeader)));
        assert!(matches!(
            read_dataset("id,name\n1,x\n"),
            Err(CsvError::WrongHeader(_))
        ));
    }

    #[test]
    fn malformed_rows_are_reported_with_line_numbers() {
        let text = format!("{HEADER}\n1,0,a,b\n");
        match read_dataset(&text) {
            Err(CsvError::Row { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected row error, got {other:?}"),
        }
        let bad_gender = format!("{HEADER}\n1,0,a,b,9,,,,,,,,,,,,,,\n");
        assert!(matches!(read_dataset(&bad_gender), Err(CsvError::Row { .. })));
        // Out of the field's range: each of these parses as a number and,
        // narrowed with `as`, would be read as a value nobody wrote
        // (source 1, gender 1, day 44, month 0, year 1900).
        for (column, field, value) in [
            (1, "source", "4294967297"),
            (4, "gender", "257"),
            (5, "birth_day", "300"),
            (6, "birth_month", "256"),
            (7, "birth_year", "4294969196"),
        ] {
            let mut row = vec![""; 19];
            (row[0], row[2], row[3]) = ("1", "a", "b");
            let good = format!("{HEADER}\n{}\n", row.join(","));
            row[column] = value;
            let text = format!("{good}{}\n", row.join(","));
            assert_eq!(
                read_dataset(&text).map(|_| ()),
                Err(CsvError::Row { line: 3, problem: format!("bad {field}: '{value}'") }),
            );
        }
    }

    #[test]
    fn split_line_handles_quoting() {
        assert_eq!(split_line("a,b,c"), vec!["a", "b", "c"]);
        assert_eq!(split_line("\"a,b\",c"), vec!["a,b", "c"]);
        assert_eq!(split_line("\"say \"\"hi\"\"\",x"), vec!["say \"hi\"", "x"]);
        assert_eq!(split_line(""), vec![""]);
    }

    #[test]
    fn imported_dataset_blocks_like_the_original() {
        // The itemized views of original and re-imported datasets agree on
        // city/name items (coordinates and non-city place parts are not
        // carried by the flat format, by design).
        let (ds, _) = sample_dataset();
        let text = write_dataset(&ds, None);
        let (loaded, _) = read_dataset(&text).expect("parse");
        let guido = loaded.interner().get(crate::ItemType::FirstName, "guido");
        assert!(guido.is_some());
        assert!(
            loaded.bag(crate::RecordId(0)).len() >= 6,
            "imported bags carry the comparable items"
        );
    }
}
