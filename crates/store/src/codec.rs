//! Deterministic binary encoding for store payloads.
//!
//! Hand-rolled like `yv_adt::persist` (the build is offline and the
//! workspace carries no serialization framework). Every encoder is paired
//! with a decoder reading exactly the bytes it wrote; floats go through
//! `f64::to_bits` so that encode ∘ decode ∘ encode is byte-identical,
//! which is what makes the snapshot round-trip test
//! (`save(load(save(x))) == save(x)`) meaningful.
//!
//! Each check a payload decoder needs exists once: [`Writer::len`] for a
//! u32 count prefix, [`Writer::opt`] / [`Reader::opt`] for an option,
//! [`Reader::bool`] for a flag and [`Reader::finish`] for trailing bytes.
//! What wraps a payload on disk or on the wire is [`crate::framed`]'s.

#![deny(clippy::cast_possible_truncation)]

use crate::error::StoreError;
use yv_records::field::{DateParts, Gender, GeoPoint, Place};
use yv_records::{Record, Source, SourceId};
use yv_similarity::ExpertWeights;

/// FNV-1a 64-bit — the checksum guarding snapshot payloads, log frames
/// and wire frames, and the shard routing hash.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_parts(&[bytes])
}

/// FNV-1a 64-bit folded over `parts` in order: the hash of their
/// concatenation, without building it. Only the frame checksum
/// ([`crate::framed`]) folds more than one part: a header (tag, extra)
/// plus a payload of up to 32 MiB that is already in memory.
pub(crate) fn fnv1a64_parts(parts: &[&[u8]]) -> u64 {
    fnv1a64_bytes(parts.iter().flat_map(|part| part.iter().copied()))
}

/// FNV-1a 64-bit of a byte stream, for bytes that are not in memory as a
/// slice: the shard routing hash of a lowercased name.
pub(crate) fn fnv1a64_bytes(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |hash, b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
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

    /// A writer appending behind what `buf` already holds.
    #[must_use]
    pub(crate) fn behind(buf: Vec<u8>) -> Self {
        Writer { buf }
    }

    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes as they are, with no prefix.
    pub(crate) fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
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

    /// Unsigned LEB128: seven bits a byte, low bits first, the high bit
    /// set on every byte but the last — one byte below 128, at most five.
    pub fn varint(&mut self, mut v: u32) {
        while v >= 0x80 {
            self.buf.push(v.to_le_bytes()[0] | 0x80);
            v >>= 7;
        }
        self.buf.push(v.to_le_bytes()[0]);
    }

    /// A u32 length or count prefix; one that does not fit is a typed
    /// error naming `what`, not a panic.
    pub fn len(&mut self, len: usize, what: &'static str) -> Result<(), StoreError> {
        self.u32(u32::try_from(len).map_err(|_| StoreError::LimitExceeded { what, len })?);
        Ok(())
    }

    /// Length-prefixed string.
    pub fn str(&mut self, s: &str) -> Result<(), StoreError> {
        self.len(s.len(), "string")?;
        self.raw(s.as_bytes());
        Ok(())
    }

    /// An option: tag 0, or tag 1 followed by what `put` writes.
    pub fn opt<T>(&mut self, v: Option<T>, put: impl FnOnce(&mut Writer, T)) {
        match v {
            None => self.u8(0),
            Some(v) => {
                self.u8(1);
                put(self, v);
            }
        }
    }

    /// [`Writer::opt`] for a string, whose length prefix can fail.
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

    /// The next `n` bytes, borrowed.
    pub(crate) fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], StoreError> {
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

    /// A [`Writer::varint`]. Only the shortest encoding of a u32 is read:
    /// a value past `u32::MAX`, a sixth byte or a redundant zero final
    /// byte is corruption.
    pub fn varint(&mut self, what: &str) -> Result<u32, StoreError> {
        let mut v = 0u32;
        for shift in [0, 7, 14, 21, 28] {
            let byte = self.u8(what)?;
            if (shift == 28 && byte > 0x0f) || (shift > 0 && byte == 0) {
                return Err(StoreError::Corrupt(format!("malformed varint in {what}")));
            }
            v |= u32::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(StoreError::Corrupt(format!("malformed varint in {what}")))
    }

    pub fn str(&mut self, what: &str) -> Result<String, StoreError> {
        let len = self.u32(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| StoreError::Corrupt(format!("invalid UTF-8 in {what}")))
    }

    pub fn bool(&mut self, what: &str) -> Result<bool, StoreError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(StoreError::Corrupt(format!("bad bool value {t} for {what}"))),
        }
    }

    /// An option written by [`Writer::opt`]: tag 0, or tag 1 followed by
    /// what `get` reads.
    pub fn opt<T>(
        &mut self,
        what: &str,
        get: impl FnOnce(&mut Self, &str) -> Result<T, StoreError>,
    ) -> Result<Option<T>, StoreError> {
        match self.u8(what)? {
            0 => Ok(None),
            1 => get(self, what).map(Some),
            t => Err(StoreError::Corrupt(format!("bad option tag {t} for {what}"))),
        }
    }

    /// End of a payload: bytes left over after decoding `what` are
    /// trailing garbage, refused rather than ignored.
    pub fn finish(self, what: &str) -> Result<(), StoreError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(StoreError::Corrupt(format!(
                "trailing garbage: {n} byte(s) left after decoding {what}"
            ))),
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
    let city = r.opt("place city", Reader::str)?;
    let county = r.opt("place county", Reader::str)?;
    let region = r.opt("place region", Reader::str)?;
    let country = r.opt("place country", Reader::str)?;
    let coords = match r.u8("coords tag")? {
        0 => None,
        1 => Some(GeoPoint { lat: r.f64("lat")?, lon: r.f64("lon")? }),
        t => return Err(StoreError::Corrupt(format!("bad coords tag {t}"))),
    };
    Ok(Place { city, county, region, country, coords })
}

fn write_str_vec(w: &mut Writer, v: &[String]) -> Result<(), StoreError> {
    w.len(v.len(), "name list")?;
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
    w.opt(rec.gender.map(Gender::code), Writer::u8);
    w.opt(rec.birth.day, Writer::u8);
    w.opt(rec.birth.month, Writer::u8);
    w.opt(rec.birth.year, Writer::i32);
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
    let maiden_name = r.opt("maiden name", Reader::str)?;
    let father_name = r.opt("father name", Reader::str)?;
    let mother_name = r.opt("mother name", Reader::str)?;
    let mothers_maiden = r.opt("mothers maiden", Reader::str)?;
    let spouse_name = r.opt("spouse name", Reader::str)?;
    let gender = match r.opt("gender", Reader::u8)? {
        None => None,
        Some(code) => Some(
            Gender::from_code(code)
                .ok_or_else(|| StoreError::Corrupt(format!("bad gender code {code}")))?,
        ),
    };
    let birth = DateParts {
        day: r.opt("birth day", Reader::u8)?,
        month: r.opt("birth month", Reader::u8)?,
        year: r.opt("birth year", Reader::i32)?,
    };
    let profession = r.opt("profession", Reader::str)?;
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

    #[test]
    fn varints_round_trip_in_their_shortest_form_only() {
        let cases = [(0, 1), (1, 1), (127, 1), (128, 2), (16_383, 2), (16_384, 3), (u32::MAX, 5)];
        for (v, len) in cases {
            let mut w = Writer::new();
            w.varint(v);
            let bytes = w.into_bytes();
            assert_eq!(bytes.len(), len, "{v}");
            let mut r = Reader::new(&bytes);
            assert_eq!(r.varint("v").unwrap(), v);
            r.finish("v").unwrap();
        }
        for bad in [&[0x80][..], &[0x80, 0x00], &[0xff, 0xff, 0xff, 0xff, 0x10], &[0xff; 6]] {
            let read = Reader::new(bad).varint("v");
            assert!(matches!(read, Err(StoreError::Corrupt(_))), "{bad:?}");
        }
    }

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
