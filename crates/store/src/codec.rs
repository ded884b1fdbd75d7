//! Deterministic binary encoding for store payloads.
//!
//! Hand-rolled like `yv_adt::persist` (the build is offline and the
//! workspace carries no serialization framework). Every encoder is paired
//! with a decoder reading exactly the bytes it wrote; floats go through
//! `f64::to_bits` so that encode ∘ decode ∘ encode is byte-identical,
//! which is what makes the snapshot round-trip test
//! (`save(load(save(x))) == save(x)`) meaningful.

#![deny(clippy::cast_possible_truncation)]

use crate::error::StoreError;
use yv_records::field::{DateParts, Gender, GeoPoint, Place};
use yv_records::{Record, Source, SourceId};
use yv_similarity::ExpertWeights;

/// FNV-1a 64-bit — the checksum guarding snapshot payloads and WAL frames.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_parts(&[bytes])
}

/// FNV-1a 64-bit folded over `parts` in order: the hash of their
/// concatenation, without building it. Frame checksums cover a header
/// (tag, seq) plus a payload of up to 32 MiB that is already in memory.
#[must_use]
pub fn fnv1a64_parts(parts: &[&[u8]]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in *part {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

// ---------------------------------------------------------------- writer

/// Append-only byte sink with little-endian primitives.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    #[must_use]
    pub fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Bit-exact float encoding; NaN round-trips with its payload.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Length-prefixed string; a string whose length does not fit the u32
    /// prefix is a typed error, not a panic.
    pub fn str(&mut self, s: &str) -> Result<(), StoreError> {
        self.u32(
            u32::try_from(s.len())
                .map_err(|_| StoreError::LimitExceeded { what: "string", len: s.len() })?,
        );
        self.buf.extend_from_slice(s.as_bytes());
        Ok(())
    }

    pub fn opt_str(&mut self, s: Option<&str>) -> Result<(), StoreError> {
        match s {
            None => self.u8(0),
            Some(s) => {
                self.u8(1);
                self.str(s)?;
            }
        }
        Ok(())
    }

    pub fn opt_u8(&mut self, v: Option<u8>) {
        match v {
            None => self.u8(0),
            Some(v) => {
                self.u8(1);
                self.u8(v);
            }
        }
    }

    pub fn opt_u32(&mut self, v: Option<u32>) {
        match v {
            None => self.u8(0),
            Some(v) => {
                self.u8(1);
                self.u32(v);
            }
        }
    }

    pub fn opt_i32(&mut self, v: Option<i32>) {
        match v {
            None => self.u8(0),
            Some(v) => {
                self.u8(1);
                self.i32(v);
            }
        }
    }

    pub fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            None => self.u8(0),
            Some(v) => {
                self.u8(1);
                self.f64(v);
            }
        }
    }
}

// ---------------------------------------------------------------- reader

/// Cursor over a payload slice; every read is bounds-checked and returns
/// `StoreError::Corrupt` on truncation rather than panicking.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(StoreError::Corrupt(format!(
                "truncated while reading {what}: need {n} bytes, have {}",
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Fixed-width read as an owned array; `take` guarantees the length,
    /// so a mismatch here is corruption, never a panic.
    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N], StoreError> {
        self.take(N, what)?
            .try_into()
            .map_err(|_| StoreError::Corrupt(format!("bad fixed-width slice for {what}")))
    }

    pub fn u8(&mut self, what: &str) -> Result<u8, StoreError> {
        Ok(self.take(1, what)?[0])
    }

    pub fn u32(&mut self, what: &str) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.array(what)?))
    }

    pub fn u64(&mut self, what: &str) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.array(what)?))
    }

    pub fn i32(&mut self, what: &str) -> Result<i32, StoreError> {
        Ok(i32::from_le_bytes(self.array(what)?))
    }

    pub fn f64(&mut self, what: &str) -> Result<f64, StoreError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    pub fn str(&mut self, what: &str) -> Result<String, StoreError> {
        let len = self.u32(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| StoreError::Corrupt(format!("invalid UTF-8 in {what}")))
    }

    pub fn opt_str(&mut self, what: &str) -> Result<Option<String>, StoreError> {
        match self.u8(what)? {
            0 => Ok(None),
            1 => Ok(Some(self.str(what)?)),
            t => Err(StoreError::Corrupt(format!("bad option tag {t} for {what}"))),
        }
    }

    pub fn opt_u8(&mut self, what: &str) -> Result<Option<u8>, StoreError> {
        match self.u8(what)? {
            0 => Ok(None),
            1 => Ok(Some(self.u8(what)?)),
            t => Err(StoreError::Corrupt(format!("bad option tag {t} for {what}"))),
        }
    }

    pub fn opt_u32(&mut self, what: &str) -> Result<Option<u32>, StoreError> {
        match self.u8(what)? {
            0 => Ok(None),
            1 => Ok(Some(self.u32(what)?)),
            t => Err(StoreError::Corrupt(format!("bad option tag {t} for {what}"))),
        }
    }

    pub fn opt_i32(&mut self, what: &str) -> Result<Option<i32>, StoreError> {
        match self.u8(what)? {
            0 => Ok(None),
            1 => Ok(Some(self.i32(what)?)),
            t => Err(StoreError::Corrupt(format!("bad option tag {t} for {what}"))),
        }
    }

    pub fn opt_f64(&mut self, what: &str) -> Result<Option<f64>, StoreError> {
        match self.u8(what)? {
            0 => Ok(None),
            1 => Ok(Some(self.f64(what)?)),
            t => Err(StoreError::Corrupt(format!("bad option tag {t} for {what}"))),
        }
    }
}

// ---------------------------------------------------- domain encodings

pub fn write_source(w: &mut Writer, s: &Source) -> Result<(), StoreError> {
    w.u32(s.id.0);
    match &s.kind {
        yv_records::SourceKind::Testimony { first_name, last_name, city } => {
            w.u8(0);
            w.str(first_name)?;
            w.str(last_name)?;
            w.str(city)?;
        }
        yv_records::SourceKind::List { description } => {
            w.u8(1);
            w.str(description)?;
        }
    }
    Ok(())
}

pub fn read_source(r: &mut Reader<'_>) -> Result<Source, StoreError> {
    let id = SourceId(r.u32("source id")?);
    match r.u8("source kind")? {
        0 => {
            let first = r.str("testimony first name")?;
            let last = r.str("testimony last name")?;
            let city = r.str("testimony city")?;
            Ok(Source::testimony(id, &first, &last, &city))
        }
        1 => {
            let description = r.str("list description")?;
            Ok(Source::list(id, &description))
        }
        t => Err(StoreError::Corrupt(format!("unknown source kind tag {t}"))),
    }
}

fn write_place(w: &mut Writer, p: &Place) -> Result<(), StoreError> {
    w.opt_str(p.city.as_deref())?;
    w.opt_str(p.county.as_deref())?;
    w.opt_str(p.region.as_deref())?;
    w.opt_str(p.country.as_deref())?;
    match p.coords {
        None => w.u8(0),
        Some(GeoPoint { lat, lon }) => {
            w.u8(1);
            w.f64(lat);
            w.f64(lon);
        }
    }
    Ok(())
}

fn read_place(r: &mut Reader<'_>) -> Result<Place, StoreError> {
    let city = r.opt_str("place city")?;
    let county = r.opt_str("place county")?;
    let region = r.opt_str("place region")?;
    let country = r.opt_str("place country")?;
    let coords = match r.u8("coords tag")? {
        0 => None,
        1 => Some(GeoPoint { lat: r.f64("lat")?, lon: r.f64("lon")? }),
        t => return Err(StoreError::Corrupt(format!("bad coords tag {t}"))),
    };
    Ok(Place { city, county, region, country, coords })
}

fn write_str_vec(w: &mut Writer, v: &[String]) -> Result<(), StoreError> {
    w.u32(
        u32::try_from(v.len())
            .map_err(|_| StoreError::LimitExceeded { what: "name list", len: v.len() })?,
    );
    for s in v {
        w.str(s)?;
    }
    Ok(())
}

fn read_str_vec(r: &mut Reader<'_>, what: &str) -> Result<Vec<String>, StoreError> {
    let n = r.u32(what)? as usize;
    let mut out = Vec::with_capacity(n.min(r.remaining()));
    for _ in 0..n {
        out.push(r.str(what)?);
    }
    Ok(out)
}

pub fn write_record(w: &mut Writer, rec: &Record) -> Result<(), StoreError> {
    w.u64(rec.book_id);
    w.u32(rec.source.0);
    write_str_vec(w, &rec.first_names)?;
    write_str_vec(w, &rec.last_names)?;
    w.opt_str(rec.maiden_name.as_deref())?;
    w.opt_str(rec.father_name.as_deref())?;
    w.opt_str(rec.mother_name.as_deref())?;
    w.opt_str(rec.mothers_maiden.as_deref())?;
    w.opt_str(rec.spouse_name.as_deref())?;
    w.opt_u8(rec.gender.map(Gender::code));
    w.opt_u8(rec.birth.day);
    w.opt_u8(rec.birth.month);
    w.opt_i32(rec.birth.year);
    w.opt_str(rec.profession.as_deref())?;
    for place in &rec.places {
        match place {
            None => w.u8(0),
            Some(p) => {
                w.u8(1);
                write_place(w, p)?;
            }
        }
    }
    Ok(())
}

pub fn read_record(r: &mut Reader<'_>) -> Result<Record, StoreError> {
    let book_id = r.u64("book id")?;
    let source = SourceId(r.u32("record source")?);
    let first_names = read_str_vec(r, "first names")?;
    let last_names = read_str_vec(r, "last names")?;
    let maiden_name = r.opt_str("maiden name")?;
    let father_name = r.opt_str("father name")?;
    let mother_name = r.opt_str("mother name")?;
    let mothers_maiden = r.opt_str("mothers maiden")?;
    let spouse_name = r.opt_str("spouse name")?;
    let gender = match r.opt_u8("gender")? {
        None => None,
        Some(code) => Some(
            Gender::from_code(code)
                .ok_or_else(|| StoreError::Corrupt(format!("bad gender code {code}")))?,
        ),
    };
    let birth = DateParts {
        day: r.opt_u8("birth day")?,
        month: r.opt_u8("birth month")?,
        year: r.opt_i32("birth year")?,
    };
    let profession = r.opt_str("profession")?;
    let mut places: [Option<Place>; 4] = [None, None, None, None];
    for slot in &mut places {
        *slot = match r.u8("place tag")? {
            0 => None,
            1 => Some(read_place(r)?),
            t => return Err(StoreError::Corrupt(format!("bad place tag {t}"))),
        };
    }
    Ok(Record {
        book_id,
        source,
        first_names,
        last_names,
        maiden_name,
        father_name,
        mother_name,
        mothers_maiden,
        spouse_name,
        gender,
        birth,
        profession,
        places,
    })
}

pub fn write_expert_weights(w: &mut Writer, weights: &ExpertWeights) {
    for ty in yv_records::ItemType::all() {
        w.f64(weights.weight(ty));
    }
}

pub fn read_expert_weights(r: &mut Reader<'_>) -> Result<ExpertWeights, StoreError> {
    let mut weights = ExpertWeights::uniform();
    for ty in yv_records::ItemType::all() {
        weights.set(ty, r.f64("expert weight")?);
    }
    Ok(weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use yv_records::field::PlaceType;
    use yv_records::RecordBuilder;

    fn full_record() -> Record {
        RecordBuilder::new(1_016_196, SourceId(3))
            .first_name("Guido")
            .first_name("Guidino")
            .last_name("Foa")
            .maiden_name("Levi")
            .father_name("Italo")
            .mother_name("Estela")
            .mothers_maiden("Colombo")
            .spouse_name("Rosa")
            .gender(Gender::Male)
            .birth(DateParts::full(2, 8, 1936))
            .profession("tailor")
            .place(
                PlaceType::Birth,
                Place::full("Torino", "Torino", "Piemonte", "Italy", GeoPoint::new(45.07, 7.69)),
            )
            .build()
    }

    #[test]
    fn fnv1a64_parts_equals_the_hash_of_the_concatenation() {
        let (tag, seq) = (7u8, 0x0102_0304_0506_0708u64);
        for len in [0usize, 1, 100 * 1024] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 31 + 5).to_le_bytes()[0]).collect();
            let mut framed = vec![tag];
            framed.extend_from_slice(&payload);
            assert_eq!(fnv1a64_parts(&[&[tag], &payload]), fnv1a64(&framed), "len {len}");
            let mut sequenced = vec![tag];
            sequenced.extend_from_slice(&seq.to_le_bytes());
            sequenced.extend_from_slice(&payload);
            assert_eq!(
                fnv1a64_parts(&[&[tag], &seq.to_le_bytes(), &payload]),
                fnv1a64(&sequenced),
                "len {len}"
            );
        }
    }

    #[test]
    fn record_round_trips() {
        let rec = full_record();
        let mut w = Writer::new();
        write_record(&mut w, &rec).unwrap();
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(read_record(&mut r).unwrap(), rec);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn sparse_record_round_trips() {
        let rec = RecordBuilder::new(7, SourceId(0)).build();
        let mut w = Writer::new();
        write_record(&mut w, &rec).unwrap();
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(read_record(&mut r).unwrap(), rec);
    }

    #[test]
    fn source_round_trips() {
        for src in [
            Source::testimony(SourceId(4), "Sara", "Levi", "Roma"),
            Source::list(SourceId(9), "deportation list 1943"),
        ] {
            let mut w = Writer::new();
            write_source(&mut w, &src).unwrap();
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(read_source(&mut r).unwrap(), src);
        }
    }

    #[test]
    fn truncation_is_a_typed_error_not_a_panic() {
        let mut w = Writer::new();
        write_record(&mut w, &full_record()).unwrap();
        let bytes = w.into_bytes();
        for cut in [0, 1, 5, bytes.len() / 2, bytes.len() - 1] {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(
                matches!(read_record(&mut r), Err(StoreError::Corrupt(_))),
                "cut at {cut} must be Corrupt"
            );
        }
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
