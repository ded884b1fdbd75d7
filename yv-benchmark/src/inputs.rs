//! Everything a workload consumes, made from `--seed`.
//!
//! **Fixed population, seeded order.** The corpus, the ADT training set,
//! the hold-out split and the multiset of requests and arrivals come from
//! fixed generator seeds; `--seed` decides the order: of the base records
//! (hence every record id), of the requests and which connection sends
//! each, of the arrivals. Same seed, same inputs; another seed, the same
//! people met in another order.
//!
//! The reason is measured, not aesthetic. The driver compares runs across
//! seeds, and what varies with the population drowns a 10 % bound:
//! regenerating the corpus per seed moves `Pipeline::resolve` by ±10 %
//! (1.57–1.93 s over five seeds at 24 000 records), holding out a
//! different sixteenth of one corpus still by ±10 % (1.41–1.73 s over ten
//! seeds), because a handful of popular name clusters decide the mining
//! cost; drawing the 1 040 read requests afresh moves `serve_read` by
//! 4 %, and pair quality by up to 8 %.

use crate::BenchResult;
use std::collections::{HashMap, HashSet};
use yv_core::{IncrementalConfig, IncrementalResolver, PersonQuery, Pipeline, PipelineConfig};
use yv_datagen::{tag_pairs, GenConfig, PersonId};
use yv_obs::Clock;
use yv_records::{Dataset, Record, RecordId};
use yv_store::Store;

/// Generator seed of the corpus.
pub const CORPUS_SEED: u64 = 11;
/// Generator seed of the records the ADT is trained on (oracle tags, as
/// `yv serve` bootstraps).
pub const TRAIN_SEED: u64 = CORPUS_SEED ^ 1;
/// Seed of the fixed request population.
const POPULATION_SEED: u64 = CORPUS_SEED;
/// Closed-loop client connections of the serving workloads (= `nproc`
/// of the reference box) and, equally, server workers.
pub const CONNECTIONS: usize = 2;
/// Every `HOLDOUT_STRIDE`-th corpus record is held out as an arrival.
/// Datagen emits a person's reports contiguously, so a stride keeps each
/// arrival's true duplicates in the base.
pub const HOLDOUT_STRIDE: usize = 16;
/// Shards of every store the benchmark creates.
pub const SHARDS: usize = 4;
/// Certainty thresholds queries cycle through; three maps fit the
/// store's 8-slot entity-map memo.
pub const CERTAINTIES: [f64; 3] = [0.0, 0.5, 1.0];

/// Fixed work per repetition. Operation counts, not durations: the
/// store's match list grows with every ADD, so only equal operation
/// sequences make two commits comparable.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub train_records: usize,
    pub corpus_records: usize,
    /// `serve_read`: requests per connection and repetition.
    pub read_ops: usize,
    /// `serve_mixed`: file-then-look-up rounds per connection.
    pub mixed_rounds: usize,
    /// `ingest_restart`: arrivals streamed per repetition (at most the
    /// held-out set).
    pub ingest_records: usize,
    /// `ingest_restart`: records per `BATCH_ADD` frame.
    pub ingest_batch: usize,
    /// `ingest_restart`: frames in flight.
    pub ingest_window: usize,
    /// Untraced repetitions run at least this often, then until
    /// `--seconds` have been measured.
    pub min_reps: usize,
    /// Times the set-up is built to take the median `setup_s`.
    pub setup_reps: usize,
    /// Iterations of each single-layer replay in the traced run.
    pub layer_iters: usize,
}

impl Sizes {
    /// The frozen benchmark sizes.
    pub const FULL: Sizes = Sizes {
        train_records: 2_000,
        corpus_records: 24_000,
        read_ops: 520,
        mixed_rounds: 150,
        ingest_records: 768,
        ingest_batch: 128,
        ingest_window: 4,
        min_reps: 3,
        setup_reps: 3,
        layer_iters: 300,
    };

    /// Smoke-test sizes: every code path, no statistical meaning.
    pub const TOY: Sizes = Sizes {
        train_records: 600,
        corpus_records: 1_500,
        read_ops: 20,
        mixed_rounds: 10,
        ingest_records: 80,
        ingest_batch: 32,
        ingest_window: 2,
        min_reps: 1,
        setup_reps: 1,
        layer_iters: 20,
    };
}

/// Independent random streams drawn from one seed.
pub mod stream {
    pub const BASE: u64 = 1;
    pub const READ: u64 = 2;
    pub const MIXED: u64 = 3;
    pub const INGEST: u64 = 4;
    pub const PROBES: u64 = 5;
}

/// splitmix64: the benchmark's own deterministic sequence, so operation
/// choice cannot drift with a dependency.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias at these sizes is
    /// below 2⁻⁴⁰.
    pub fn below(&mut self, n: usize) -> usize {
        // The remainder is below `n`, so it fits.
        usize::try_from(self.next_u64() % n.max(1) as u64).unwrap_or(0)
    }
}

/// A held-out record with its ground-truth person.
#[derive(Debug, Clone)]
pub struct Arrival {
    pub record: Record,
    pub person: PersonId,
}

/// One read request of `serve_read`.
#[derive(Debug, Clone, PartialEq)]
pub enum ReadOp {
    Query(PersonQuery),
    /// `name` is `original` (a stored last name, lowercased) with one
    /// edit.
    Resolve {
        name: String,
        original: String,
    },
}

/// The seeded inputs shared by all workloads.
#[derive(Debug)]
pub struct Inputs {
    pub sizes: Sizes,
    pub seed: u64,
    pub pipeline: Pipeline,
    pub config: PipelineConfig,
    /// The corpus minus the held-out arrivals, in this seed's order.
    pub base: Dataset,
    /// Ground-truth person of each base record.
    pub base_person: Vec<PersonId>,
    /// Every held-out record the wire can carry, in corpus order.
    pub arrivals: Vec<Arrival>,
    read_population: Vec<ReadOp>,
    /// Arrivals and request draws left out because a first or last name
    /// contains whitespace, which the text protocol cannot carry
    /// (`Unencodable("last value \"Della Torre\" contains whitespace")`).
    /// Left out for both transports so they meet the same people.
    pub skipped_unencodable: u64,
    pub generate_s: f64,
    pub train_s: f64,
}

/// True when the line protocol can carry this value.
fn wire_safe(value: &str) -> bool {
    !value.is_empty() && !value.chars().any(char::is_whitespace)
}

fn names_wire_safe(record: &Record) -> bool {
    record
        .first_names
        .iter()
        .chain(&record.last_names)
        .all(|n| wire_safe(n))
}

/// The record as a text front end can file it: places and the mother's
/// maiden name have no `ADD` key, and a scalar with whitespace is
/// refused, so both are left blank.
#[must_use]
pub fn for_text_transport(record: &Record) -> Record {
    let keep = |v: &Option<String>| v.clone().filter(|s| wire_safe(s));
    Record {
        maiden_name: keep(&record.maiden_name),
        father_name: keep(&record.father_name),
        mother_name: keep(&record.mother_name),
        spouse_name: keep(&record.spouse_name),
        profession: keep(&record.profession),
        mothers_maiden: None,
        places: [None, None, None, None],
        ..record.clone()
    }
}

/// The id of the `index`-th record of a dataset (datasets hold fewer
/// than 2³² records).
#[must_use]
pub fn record_id(index: usize) -> RecordId {
    RecordId(u32::try_from(index).unwrap_or(u32::MAX))
}

/// `Dataset` is deliberately not `Clone`; rebuild it source by source.
#[must_use]
pub fn clone_dataset(ds: &Dataset) -> Dataset {
    let mut out = Dataset::new();
    for source in ds.sources() {
        out.add_source(source.clone());
    }
    for record in ds.records() {
        out.add_record(record.clone());
    }
    out
}

fn seconds_since(clock: &dyn Clock, start_ns: u64) -> f64 {
    clock.now_nanos().saturating_sub(start_ns) as f64 / 1e9
}

/// `want` items spread evenly over `items` (all of them when there are
/// fewer), so a subset covers every region of the corpus.
fn strided<T>(items: &[T], want: usize) -> Vec<&T> {
    let n = items.len();
    if want >= n {
        return items.iter().collect();
    }
    (0..want).map(|i| &items[i * n / want]).collect()
}

/// Fisher–Yates.
fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// The fixed request population of `serve_read`: for every fifth draw a
/// RESOLVE of a misspelled stored last name, otherwise a QUERY —
/// alternately last name only and first + last, certainty cycling.
/// Records are drawn uniformly over *records*, so popular names recur as
/// they do at a front end; draws the wire cannot carry are skipped and
/// counted.
fn read_population(records: &[(Record, PersonId)], want: usize) -> (Vec<ReadOp>, u64) {
    let mut rng = Rng::new(POPULATION_SEED, stream::READ);
    let mut skipped = 0;
    let mut queries = 0usize;
    let mut ops = Vec::with_capacity(want);
    while ops.len() < want && !records.is_empty() {
        let record = &records[rng.below(records.len())].0;
        let Some(last) = record
            .last_names
            .first()
            .filter(|_| names_wire_safe(record))
        else {
            skipped += 1;
            continue;
        };
        if ops.len() % 5 == 4 {
            ops.push(ReadOp::Resolve {
                name: misspell(last, rng.next_u64()),
                original: last.to_lowercase(),
            });
            continue;
        }
        queries += 1;
        ops.push(ReadOp::Query(PersonQuery {
            first_name: record
                .first_names
                .first()
                .filter(|_| queries.is_multiple_of(2))
                .cloned(),
            last_name: Some(last.clone()),
            certainty: CERTAINTIES[queries % CERTAINTIES.len()],
            ..PersonQuery::default()
        }));
    }
    (ops, skipped)
}

impl Inputs {
    /// Train the model, generate the corpus, split it, and put the base
    /// in this seed's order.
    #[must_use]
    pub fn build(seed: u64, sizes: Sizes, clock: &dyn Clock) -> Inputs {
        let config = PipelineConfig::default();

        let t0 = clock.now_nanos();
        let train_gen = GenConfig::random(sizes.train_records, TRAIN_SEED).generate();
        let blocked = yv_blocking::mfi_blocks(&train_gen.dataset, &config.blocking);
        let tags = tag_pairs(&train_gen, &blocked.candidate_pairs, 1);
        let labelled: Vec<_> = tags
            .iter()
            .filter_map(|t| t.simplified().map(|m| (t.a, t.b, m)))
            .collect();
        let pipeline = Pipeline::train(&train_gen.dataset, &labelled, &config);
        let train_s = seconds_since(clock, t0);

        let t0 = clock.now_nanos();
        let corpus = GenConfig::random(sizes.corpus_records, CORPUS_SEED).generate();
        let generate_s = seconds_since(clock, t0);

        let mut kept: Vec<(Record, PersonId)> = Vec::new();
        let mut arrivals = Vec::new();
        let mut skipped_unencodable = 0;
        for rid in corpus.dataset.record_ids() {
            let record = corpus.dataset.record(rid);
            let person = corpus.person_of(rid);
            if rid.index() % HOLDOUT_STRIDE != 0 {
                kept.push((record.clone(), person));
            } else if names_wire_safe(record) {
                arrivals.push(Arrival {
                    record: record.clone(),
                    person,
                });
            } else {
                skipped_unencodable += 1;
            }
        }
        let (read_population, skipped_draws) = read_population(&kept, sizes.read_ops * CONNECTIONS);

        shuffle(&mut kept, &mut Rng::new(seed, stream::BASE));
        let mut base = Dataset::new();
        for source in corpus.dataset.sources() {
            base.add_source(source.clone());
        }
        let mut base_person = Vec::with_capacity(kept.len());
        for (record, person) in kept {
            base.add_record(record);
            base_person.push(person);
        }
        Inputs {
            sizes,
            seed,
            pipeline,
            config,
            base,
            base_person,
            arrivals,
            read_population,
            skipped_unencodable: skipped_unencodable + skipped_draws,
            generate_s,
            train_s,
        }
    }

    /// Bootstrap the base into a fresh store directory — what `yv serve`
    /// does on an empty `--dir` — and close it again. Repetitions copy
    /// this golden directory and open the copy.
    pub fn create_golden(&self, dir: &std::path::Path) -> BenchResult<()> {
        let resolver = IncrementalResolver::bootstrap(
            clone_dataset(&self.base),
            self.pipeline.clone(),
            self.config.clone(),
            IncrementalConfig::default(),
        );
        Store::create(dir, resolver, SHARDS)
            .map(drop)
            .map_err(crate::err)
    }

    /// Base records per ground-truth person.
    #[must_use]
    pub fn base_by_person(&self) -> HashMap<PersonId, Vec<RecordId>> {
        let mut by_person: HashMap<PersonId, Vec<RecordId>> = HashMap::new();
        for (i, person) in self.base_person.iter().enumerate() {
            by_person.entry(*person).or_default().push(record_id(i));
        }
        by_person
    }

    /// All ground-truth matching pairs inside the base, `a < b`.
    #[must_use]
    pub fn gold_base_pairs(&self) -> HashSet<(RecordId, RecordId)> {
        let mut gold = HashSet::new();
        for records in self.base_by_person().values() {
            for (i, &a) in records.iter().enumerate() {
                for &b in &records[i + 1..] {
                    gold.insert((a.min(b), a.max(b)));
                }
            }
        }
        gold
    }

    /// Share of arrivals whose person already has a report in the base.
    #[must_use]
    pub fn arrivals_with_duplicate_share(&self) -> f64 {
        let by_person = self.base_by_person();
        let with = self
            .arrivals
            .iter()
            .filter(|a| by_person.contains_key(&a.person))
            .count();
        with as f64 / self.arrivals.len().max(1) as f64
    }

    /// This seed's order of `items`, dealt round-robin; `connection`'s
    /// share.
    fn dealt<T: Clone>(&self, items: Vec<&T>, stream: u64, connection: usize) -> Vec<T> {
        let mut items = items;
        shuffle(&mut items, &mut Rng::new(self.seed, stream));
        items
            .into_iter()
            .skip(connection)
            .step_by(CONNECTIONS)
            .cloned()
            .collect()
    }

    /// The request sequence of one `serve_read` connection: its share of
    /// the fixed population, in this seed's order.
    #[must_use]
    pub fn read_ops(&self, connection: usize) -> Vec<ReadOp> {
        self.dealt(
            self.read_population.iter().collect(),
            stream::READ,
            connection,
        )
    }

    /// The arrivals one `serve_mixed` connection files, as the text
    /// transport can carry them: its share, in this seed's order, of a
    /// fixed subset spread over the whole corpus. Only arrivals with a
    /// last name qualify (the round looks the filed name up).
    #[must_use]
    pub fn mixed_arrivals(&self, connection: usize) -> Vec<Arrival> {
        let named: Vec<&Arrival> = self
            .arrivals
            .iter()
            .filter(|a| !a.record.last_names.is_empty())
            .collect();
        self.dealt(
            strided(&named, self.sizes.mixed_rounds * CONNECTIONS),
            stream::MIXED,
            connection,
        )
        .into_iter()
        .map(|a| Arrival {
            record: for_text_transport(&a.record),
            person: a.person,
        })
        .collect()
    }

    /// The arrivals one `ingest_restart` repetition streams: a fixed
    /// subset spread over the whole corpus, in this seed's order.
    #[must_use]
    pub fn ingest_arrivals(&self) -> Vec<Arrival> {
        let mut subset = strided(&self.arrivals, self.sizes.ingest_records);
        shuffle(&mut subset, &mut Rng::new(self.seed, stream::INGEST));
        subset.into_iter().cloned().collect()
    }
}

/// Whether the `serve_mixed` round that files `record` also RESOLVEs its
/// misspelled last name — one round in five, decided by the record so
/// the request population does not depend on the order.
#[must_use]
pub fn round_resolves(record: &Record) -> bool {
    record.book_id.is_multiple_of(5)
}

/// One deterministic edit in the middle of a name — substitute or delete,
/// the clerical-error shapes the fuzzy index is built to absorb.
#[must_use]
pub fn misspell(name: &str, choice: u64) -> String {
    let mut chars: Vec<char> = name.to_lowercase().chars().collect();
    let mid = chars.len() / 2;
    if chars.len() > 2 {
        if choice.is_multiple_of(2) {
            chars[mid] = if chars[mid] == 'x' { 'y' } else { 'x' };
        } else {
            chars.remove(mid);
        }
    }
    chars.into_iter().collect()
}

/// The look-up that follows filing `record`: its first + last name at
/// certainty 0.
#[must_use]
pub fn lookup_for(record: &Record) -> PersonQuery {
    PersonQuery {
        first_name: record.first_names.first().cloned(),
        last_name: record.last_names.first().cloned(),
        ..PersonQuery::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yv_obs::MonotonicClock;

    #[test]
    fn rng_is_a_pure_function_of_seed_and_stream() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(8, 1));
        assert_ne!(draw(7, 1), draw(7, 2));
        let mut r = Rng::new(3, 3);
        assert!((0..1_000).all(|_| r.below(10) < 10));
    }

    #[test]
    fn misspellings_are_one_edit_away() {
        assert_eq!(misspell("Foa", 0), "fxa");
        assert_eq!(misspell("Foa", 1), "fa");
        assert_eq!(misspell("Postel", 0), "posxel");
        assert_eq!(misspell("Ab", 0), "ab", "too short to edit");
        assert_eq!(misspell("axa", 0), "aya");
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_split() {
        let clock = MonotonicClock::new();
        let a = Inputs::build(5, Sizes::TOY, &clock);
        let b = Inputs::build(5, Sizes::TOY, &clock);
        let c = Inputs::build(6, Sizes::TOY, &clock);
        assert_eq!(a.base.records(), b.base.records());
        assert_eq!(a.read_ops(0), b.read_ops(0));
        assert_ne!(a.read_ops(0), a.read_ops(1));
        assert_ne!(a.base.records(), c.base.records());
        assert_ne!(a.read_ops(0), c.read_ops(0));

        // ... of the same population: only the order differs.
        let sorted = |inputs: &Inputs| {
            let mut books: Vec<u64> = inputs.base.records().iter().map(|r| r.book_id).collect();
            books.sort_unstable();
            books
        };
        assert_eq!(sorted(&a), sorted(&c));
        let all_ops = |inputs: &Inputs| {
            let mut ops: Vec<String> = (0..CONNECTIONS)
                .flat_map(|c| inputs.read_ops(c))
                .map(|op| format!("{op:?}"))
                .collect();
            ops.sort_unstable();
            ops
        };
        assert_eq!(all_ops(&a), all_ops(&c));
        assert_eq!(all_ops(&a).len(), Sizes::TOY.read_ops * CONNECTIONS);
        let streamed = |inputs: &Inputs| {
            let mut books: Vec<u64> = inputs
                .ingest_arrivals()
                .iter()
                .map(|a| a.record.book_id)
                .collect();
            books.sort_unstable();
            books
        };
        assert_eq!(streamed(&a), streamed(&c));
        assert_eq!(streamed(&a).len(), Sizes::TOY.ingest_records);
        let held_out = a.arrivals.len() as u64 + a.skipped_unencodable;
        assert!(
            a.base.len() as u64 + held_out >= 1_500,
            "the generator emits at least the requested records"
        );
        assert!(held_out >= 1_500 / 16);
        assert!(a.arrivals_with_duplicate_share() > 0.3);
    }

    #[test]
    fn text_arrivals_carry_nothing_the_line_protocol_refuses() {
        let clock = MonotonicClock::new();
        let inputs = Inputs::build(1, Sizes::TOY, &clock);
        for arrival in inputs
            .mixed_arrivals(0)
            .iter()
            .chain(&inputs.mixed_arrivals(1))
        {
            let r = &arrival.record;
            assert!(r.places.iter().all(Option::is_none) && r.mothers_maiden.is_none());
            let scalars = [
                &r.maiden_name,
                &r.father_name,
                &r.mother_name,
                &r.spouse_name,
                &r.profession,
            ];
            assert!(scalars.into_iter().flatten().all(|s| wire_safe(s)));
            assert!(names_wire_safe(r));
        }
    }
}
