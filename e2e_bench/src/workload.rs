//! The four workloads: input generation, the reference answer, and one
//! job through the repository's public entry points.
//!
//! The three `median_*` workloads are the paper's 3×3 sliding median in
//! `cluster_experiment`'s configuration (5 reducers, SequenceFile
//! framing, 20 input splits) with map and reduce slots capped at the
//! host's CPU count, run through `SlidingMedian::run` on the local
//! engine. `dist_wordcount` is the `DistJobSpec` wordcount run through
//! `run_distributed` on two worker processes, the only job the workers
//! know how to rebuild from a spec.

use crate::digest::Digest;
use crate::procfs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scihadoop_bench::DistJobSpec;
use scihadoop_compress::DeflateCodec;
use scihadoop_core::TransformCodec;
use scihadoop_grid::{Coord, Variable};
use scihadoop_mapreduce::{
    obs, run_distributed, DistConfig, Framing, InputSplit, JobConfig, JobResult, KvPair, MrError,
    Recorder, Transport, WireCodec,
};
use scihadoop_queries::{dataset_splits, oracle, KeyLayout, SlidingMedian, SlidingMedianVariant};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = [
    "median_plain",
    "median_transform",
    "median_agg",
    "dist_wordcount",
];

/// Input splits per median job (`cluster_experiment`'s split count).
const MEDIAN_SPLITS: usize = 20;
/// Records per wordcount input split, as in `DistJobSpec::make_splits`:
/// many small map tasks, so the per-task control plane shows.
const WORDS_PER_SPLIT: usize = 128;
/// Distinct words, as in `DistJobSpec::make_splits`.
const VOCABULARY: usize = 97;
/// Worker processes for the wordcount.
const DIST_WORKERS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    MedianPlain,
    MedianTransform,
    MedianAgg,
    DistWordcount,
}

/// A workload at a size: grid side for the median workloads, input
/// records for the wordcount.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    kind: Kind,
    size: usize,
}

/// A generated input.
pub enum Input {
    /// The n×n integer grid the median query reads.
    Grid(Variable),
    /// The wordcount's input splits.
    Words(Vec<InputSplit>),
}

/// One finished job, as the benchmark saw it from outside.
pub struct JobRun {
    /// Wall seconds around the public entry call.
    pub wall_s: f64,
    /// User+sys CPU seconds of this process and its reaped children
    /// over the same interval.
    pub cpu_s: f64,
    /// Digest of the job's answer.
    pub digest: Digest,
    /// What the engine returned.
    pub result: JobResult,
}

impl Workload {
    /// Look a workload up by name; `size` overrides its default size.
    pub fn parse(name: &str, size: Option<usize>) -> Option<Workload> {
        let (kind, default_size) = match name {
            "median_plain" => (Kind::MedianPlain, 768),
            "median_transform" => (Kind::MedianTransform, 384),
            "median_agg" => (Kind::MedianAgg, 768),
            "dist_wordcount" => (Kind::DistWordcount, 1_000_000),
            _ => return None,
        };
        Some(Workload {
            kind,
            size: size.unwrap_or(default_size),
        })
    }

    /// Grid side or record count.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Input records one job reads: grid cells or words.
    pub fn input_records(&self) -> u64 {
        match self.kind {
            Kind::DistWordcount => self.size as u64,
            _ => (self.size * self.size) as u64,
        }
    }

    /// Generate the input from the seed; the same seed gives the same
    /// input.
    pub fn generate(&self, seed: u64) -> Input {
        match self.kind {
            Kind::DistWordcount => {
                let mut rng = StdRng::seed_from_u64(seed);
                let words: Vec<KvPair> = (0..self.size)
                    .map(|_| {
                        let word = format!("word-{:05}", rng.random_range(0..VOCABULARY));
                        KvPair::new(word.into_bytes(), vec![1u8])
                    })
                    .collect();
                Input::Words(
                    words
                        .chunks(WORDS_PER_SPLIT)
                        .map(|chunk| InputSplit::new(chunk.to_vec()))
                        .collect(),
                )
            }
            _ => Input::Grid(scihadoop_bench::workloads::int_square(
                self.size as u32,
                seed,
            )),
        }
    }

    /// Digest of the correct answer, computed without the engine: the
    /// sequential sliding-median oracle, or the tally of the generated
    /// words.
    pub fn reference(&self, input: &Input) -> Digest {
        match input {
            Input::Grid(var) => {
                median_digest(&oracle::sliding_median(var, 3).expect("the grid holds i32 cells"))
            }
            Input::Words(splits) => {
                let mut counts: HashMap<&[u8], u64> = HashMap::new();
                for record in splits.iter().flat_map(|s| &s.records) {
                    *counts.entry(&record.key).or_default() += 1;
                }
                let mut digest = Digest::default();
                for (word, count) in counts {
                    digest.add(word, &count.to_be_bytes());
                }
                digest
            }
        }
    }

    /// The configured median query (`cluster_experiment`'s settings).
    pub fn query(&self) -> SlidingMedian {
        let variant = match self.kind {
            Kind::MedianPlain => SlidingMedianVariant::Plain,
            Kind::MedianTransform => SlidingMedianVariant::PlainWithCodec(Arc::new(
                TransformCodec::with_defaults(Arc::new(DeflateCodec::new())),
            )),
            Kind::MedianAgg => SlidingMedianVariant::Aggregated {
                buffer_bytes: 64 << 20,
            },
            Kind::DistWordcount => unreachable!("the wordcount is not a median query"),
        };
        let cpus = obs::host_cpus() as usize;
        let mut q = SlidingMedian::new(KeyLayout::Indexed { index: 0, ndims: 2 }, variant);
        q.num_splits = MEDIAN_SPLITS;
        q.base_config = JobConfig::default()
            .with_reducers(5)
            .with_slots(10.min(cpus), 5.min(cpus))
            .with_framing(Framing::SequenceFile);
        q
    }

    /// The wordcount's spec: one map and one reduce slot per worker.
    pub fn dist_spec(&self) -> DistJobSpec {
        DistJobSpec {
            records: self.size,
            map_slots: 1,
            reduce_slots: 1,
            ..DistJobSpec::default()
        }
    }

    /// The wordcount's runtime settings: worker processes over
    /// Unix-domain sockets, lz wire compression, and a shuffle-memory
    /// budget of one byte per input record — below the ≈4–5 stored
    /// bytes per record, so the coordinator spills and serves by pread.
    fn dist_config(&self, spec: &DistJobSpec) -> DistConfig {
        DistConfig::default()
            .with_workers(DIST_WORKERS)
            .with_transport(Transport::Uds)
            .with_wire_codec(WireCodec::Lz)
            .with_shuffle_mem_bytes(Some(self.size))
            .with_job_payload(&spec.to_spec_string())
    }

    /// Seconds to build the median query's input splits (the first
    /// step inside `SlidingMedian::run`); `None` for the wordcount,
    /// whose input is its splits.
    pub fn time_splits(&self, input: &Input) -> Option<f64> {
        let Input::Grid(var) = input else {
            return None;
        };
        let q = self.query();
        let t0 = Instant::now();
        let splits = dataset_splits(var, &q.layout, q.num_splits).expect("grid splits");
        let secs = t0.elapsed().as_secs_f64();
        drop(std::hint::black_box(splits));
        Some(secs)
    }

    /// Run one job, timed around the public entry call only. With a
    /// recorder the engine records its spans into it.
    pub fn run(&self, input: &Input, recorder: Option<&Recorder>) -> Result<JobRun, MrError> {
        let with_recorder = |config: JobConfig| match recorder {
            Some(r) => config.with_recorder(r.clone()),
            None => config,
        };
        match input {
            Input::Grid(var) => {
                let mut q = self.query();
                q.base_config = with_recorder(q.base_config);
                let (cpu0, t0) = (procfs::cpu_seconds(), Instant::now());
                let run = q.run(var)?;
                let (wall_s, cpu_s) = (t0.elapsed().as_secs_f64(), procfs::cpu_seconds() - cpu0);
                let digest = median_digest(&run.medians);
                Ok(JobRun {
                    wall_s,
                    cpu_s,
                    digest,
                    result: run.result,
                })
            }
            Input::Words(splits) => {
                let spec = self.dist_spec();
                let config = with_recorder(spec.build_config()?);
                let dist = self.dist_config(&spec);
                let splits = splits.clone();
                let (cpu0, t0) = (procfs::cpu_seconds(), Instant::now());
                let result = run_distributed(&config, &dist, splits)?;
                let (wall_s, cpu_s) = (t0.elapsed().as_secs_f64(), procfs::cpu_seconds() - cpu0);
                let digest = wordcount_digest(&result.outputs);
                Ok(JobRun {
                    wall_s,
                    cpu_s,
                    digest,
                    result,
                })
            }
        }
    }
}

/// Digest of the median query's answer, as `SlidingMedian::run`
/// returns it.
pub fn median_digest(medians: &HashMap<Coord, i32>) -> Digest {
    let mut digest = Digest::default();
    for (coord, value) in medians {
        digest.add_cell(coord.components(), *value);
    }
    digest
}

/// Digest of the wordcount's reducer outputs.
pub fn wordcount_digest(outputs: &[Vec<KvPair>]) -> Digest {
    let mut digest = Digest::default();
    for pair in outputs.iter().flatten() {
        digest.add(&pair.key, &pair.value);
    }
    digest
}

#[cfg(test)]
mod tests {
    use super::*;
    use scihadoop_mapreduce::Job;

    /// The gate accepts a correct answer and rejects it once a single
    /// output value is corrupted.
    #[test]
    fn gate_fails_when_one_output_is_corrupted() {
        let median = Workload::parse("median_plain", Some(24)).expect("known workload");
        let input = median.generate(7);
        let reference = median.reference(&input);
        let Input::Grid(var) = &input else {
            unreachable!("median input is a grid")
        };
        let mut run = median.query().run(var).expect("query runs");
        assert_eq!(median_digest(&run.medians), reference);
        *run.medians.values_mut().next().expect("non-empty answer") += 1;
        assert_ne!(median_digest(&run.medians), reference);

        // The wordcount's gate, on the same job run by the local engine
        // (the benchmark runs it in worker processes).
        let words = Workload::parse("dist_wordcount", Some(3000)).expect("known workload");
        let input = words.generate(7);
        let reference = words.reference(&input);
        let Input::Words(splits) = input else {
            unreachable!("wordcount input is word splits")
        };
        let spec = words.dist_spec();
        let mut result = Job::new(spec.build_config().expect("config"))
            .run(
                splits,
                Arc::new(DistJobSpec::mapper()),
                Arc::new(DistJobSpec::reducer()),
            )
            .expect("wordcount runs");
        assert_eq!(wordcount_digest(&result.outputs), reference);
        result.outputs[1][0].value[7] ^= 1;
        assert_ne!(wordcount_digest(&result.outputs), reference);
    }

    #[test]
    fn inputs_follow_the_seed() {
        let words = Workload::parse("dist_wordcount", Some(500)).expect("known workload");
        let digest = |seed| words.reference(&words.generate(seed));
        assert_eq!(digest(3), digest(3));
        assert_ne!(digest(3), digest(4));
        let grid = Workload::parse("median_agg", Some(8)).expect("known workload");
        let cells = |seed| match grid.generate(seed) {
            Input::Grid(var) => var.raw_data().to_vec(),
            Input::Words(_) => unreachable!("median input is a grid"),
        };
        assert_eq!(cells(3), cells(3));
        assert_ne!(cells(3), cells(4));
        assert!(Workload::parse("no_such_workload", None).is_none());
    }
}
