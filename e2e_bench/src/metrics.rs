//! Metric definitions and how each is derived from what the engine
//! already returns (`JobResult.counters` / `JobResult.stats`) and, in
//! the traced run only, from the phase rollups of an `obs::Recorder`.
//!
//! `BENCHMARK.json` lists the same names and units; a test keeps the two
//! in step. A per-layer metric's `note` is its prediction: which
//! end-to-end metric it should move, and on which workload.

use crate::workload::JobRun;
use scihadoop_mapreduce::{Counter, Phase, Trace};
use std::collections::BTreeMap;

/// One reported metric.
pub struct Metric {
    /// Name in the result's `metrics` object.
    pub name: &'static str,
    /// Unit printed with every value.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// For an end-to-end metric, its definition; for a per-layer metric,
    /// the end-to-end metric and workload it should move.
    pub note: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    note: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        note,
    }
}

/// Metrics printed with `--trace 0`.
#[rustfmt::skip]
pub const END_TO_END: [Metric; 7] = [
    m("wall_s", "s", "lower", "median wall time around the public entry call"),
    m("records_per_s", "records/s", "higher", "input records / wall_s"),
    m("cpu_s", "s", "lower", "user+sys CPU per job, reaped workers included"),
    m("intermediate_bytes", "bytes", "lower", "MapOutputMaterializedBytes"),
    m("shuffle_bytes", "bytes", "lower", "ShuffleBytes - ShuffleWireBytesSaved"),
    m("peak_rss_mib", "MiB", "lower", "VmHWM of the benchmark process at the end of the run"),
    m("setup_s", "s", "lower", "median time to generate the input"),
];

/// Jobs that errored or answered wrongly over jobs attempted. Printed
/// with the end-to-end metrics; it is not a bounded metric because its
/// healthy value is 0, and the result line carries it as
/// `failed` / `attempted`.
pub const FAILED_RATIO: Metric = m("failed_ratio", "ratio", "lower", "failed / attempted");

/// Metrics printed with `--trace 1`.
#[rustfmt::skip]
pub const PER_LAYER: &[Metric] = &[
    m("grid.generate_s", "s", "lower", "setup_s, all workloads"),
    m("queries.splits_s", "s", "lower", "wall_s, median_plain (0: dist_wordcount)"),
    m("queries.map_fn_cpu_s", "s", "lower", "wall_s and cpu_s, mostly median_agg"),
    m("queries.reduce_fn_cpu_s", "s", "lower", "wall_s and cpu_s, mostly median_agg"),
    m("job.unattributed_s", "s", "lower", "wall_s, median_plain"),
    m("job.failed_ratio", "ratio", "lower", "correctness, all workloads"),
    m("runner.map_wall_s", "s", "lower", "wall_s, all workloads"),
    m("runner.reduce_wall_s", "s", "lower", "wall_s, all workloads"),
    m("runner.task_retries", "count", "lower", "wall_s, all workloads"),
    m("sort.spill_cpu_s", "s", "lower", "wall_s and cpu_s, median_plain; no change on median_agg"),
    m("sort.merge_cpu_s", "s", "lower", "wall_s and cpu_s, median_plain; no change on median_agg"),
    m("sort.spills", "count", "lower", "wall_s and cpu_s, median_plain; no change on median_agg"),
    m("sort.split_records", "count", "lower", "wall_s and cpu_s, median_agg"),
    m("sort.cpu_share_pct", "%", "lower", "(spill + merge CPU) / cpu_s: large on median_plain, small on median_agg"),
    m("aggregate.map_output_records", "count", "lower", "intermediate_bytes and wall_s, median_agg"),
    m("aggregate.route_split_records", "count", "lower", "intermediate_bytes and wall_s, median_agg"),
    m("aggregate.output_per_input", "ratio", "lower", "map output records / map input records; intermediate_bytes, median_agg"),
    m("ifile.raw_bytes", "bytes", "lower", "intermediate_bytes, all workloads"),
    m("ifile.key_bytes", "bytes", "lower", "intermediate_bytes, all workloads"),
    m("ifile.value_bytes", "bytes", "lower", "intermediate_bytes, all workloads"),
    m("ifile.framing_bytes", "bytes", "lower", "intermediate_bytes, all workloads"),
    m("ifile.segments", "count", "lower", "intermediate_bytes, all workloads"),
    m("compress.compress_cpu_s", "s", "lower", "wall_s, median_transform"),
    m("compress.decompress_cpu_s", "s", "lower", "wall_s, median_transform"),
    m("compress.ratio", "ratio", "lower", "materialized / raw map-output bytes; intermediate_bytes, median_transform"),
    m("compress.cpu_share_pct", "%", "lower", "(compress + decompress CPU) / cpu_s; wall_s, median_transform"),
    m("shuffle.fetch_wait_s", "s", "lower", "wall_s, dist_wordcount"),
    m("shuffle.transfer_s", "s", "lower", "wall_s, dist_wordcount"),
    m("shuffle.spilled_bytes", "bytes", "lower", "wall_s and shuffle_bytes, dist_wordcount"),
    m("shuffle.spill_reads", "count", "lower", "wall_s, dist_wordcount"),
    m("shuffle.mem_high_water_bytes", "bytes", "lower", "peak_rss_mib, dist_wordcount (local runs report their whole shuffle)"),
    m("wire.saved_bytes", "bytes", "higher", "shuffle_bytes, dist_wordcount"),
    m("wire.lz_compress_cpu_s", "s", "lower", "cpu_s, dist_wordcount"),
    m("wire.lz_decompress_cpu_s", "s", "lower", "cpu_s, dist_wordcount"),
    m("trace.map_emit.wall_s", "s", "lower", "wall_s, median_agg"),
    m("trace.map_emit.cpu_s", "s", "lower", "cpu_s, median_agg"),
    m("trace.sort_spill.wall_s", "s", "lower", "wall_s, median_plain"),
    m("trace.sort_spill.cpu_s", "s", "lower", "cpu_s, median_plain"),
    m("trace.combine.wall_s", "s", "lower", "wall_s, jobs with a combiner (none here)"),
    m("trace.combine.cpu_s", "s", "lower", "cpu_s, jobs with a combiner (none here)"),
    m("trace.ifile_write.wall_s", "s", "lower", "wall_s, median_plain and median_transform"),
    m("trace.ifile_write.cpu_s", "s", "lower", "cpu_s, median_plain and median_transform"),
    m("trace.shuffle_fetch.wall_s", "s", "lower", "wall_s, median_transform"),
    m("trace.shuffle_fetch.cpu_s", "s", "lower", "cpu_s, median_transform"),
    m("trace.merge.wall_s", "s", "lower", "wall_s, median_plain"),
    m("trace.merge.cpu_s", "s", "lower", "cpu_s, median_plain; compare sort.merge_cpu_s"),
    m("trace.sort_split.wall_s", "s", "lower", "wall_s, median_agg"),
    m("trace.sort_split.cpu_s", "s", "lower", "cpu_s, median_agg"),
    m("trace.reduce_group.wall_s", "s", "lower", "wall_s, all median workloads"),
    m("trace.reduce_group.cpu_s", "s", "lower", "cpu_s, all median workloads"),
    m("trace.phase_sum_wall_s", "s", "lower", "sum over the eight phases, summed across threads; compare job.unattributed_s"),
    m("trace.phase_sum_cpu_s", "s", "lower", "sum over the eight phases; compare cpu_s"),
    m("trace.merge_gap_cpu_s", "s", "lower", "MergeNanos minus the merge phase's CPU: reduce-side merge outside every span"),
    m("trace.overhead_pct", "%", "lower", "traced wall / untraced wall_s - 1"),
];

/// The eight pipeline phases reported as `trace.<phase>.*`.
const PHASES: [Phase; 8] = [
    Phase::MapEmit,
    Phase::SortSpill,
    Phase::Combine,
    Phase::IFileWrite,
    Phase::ShuffleFetch,
    Phase::Merge,
    Phase::SortSplit,
    Phase::ReduceGroup,
];

/// Values collected over a run's jobs, by metric name.
#[derive(Default)]
pub struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    /// Record one value.
    pub fn push(&mut self, name: &str, value: f64) {
        self.0.entry(name.to_string()).or_default().push(value);
    }

    /// Median of a metric's values (0 when it has none).
    pub fn median(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| median(v))
    }

    /// Every value of a metric, in the order recorded.
    pub fn values(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }
}

/// Median of a non-empty list (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.is_empty() {
        0.0
    } else if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

fn secs(nanos: u64) -> f64 {
    nanos as f64 / 1e9
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-job end-to-end values of an untraced job.
pub fn push_end_to_end(job: &JobRun, input_records: u64, out: &mut Samples) {
    let c = &job.result.counters;
    out.push("wall_s", job.wall_s);
    out.push("records_per_s", ratio(input_records as f64, job.wall_s));
    out.push("cpu_s", job.cpu_s);
    out.push(
        "intermediate_bytes",
        c.get(Counter::MapOutputMaterializedBytes) as f64,
    );
    out.push(
        "shuffle_bytes",
        c.get(Counter::ShuffleBytes)
            .saturating_sub(c.get(Counter::ShuffleWireBytesSaved)) as f64,
    );
}

/// The counter- and stats-based layer values of an untraced job.
pub fn push_layers(job: &JobRun, out: &mut Samples) {
    let c = &job.result.counters;
    let s = &job.result.stats;
    let n = |counter| c.get(counter) as f64;
    let seconds = |counter| secs(c.get(counter));
    out.push("queries.map_fn_cpu_s", seconds(Counter::MapFnNanos));
    out.push("queries.reduce_fn_cpu_s", seconds(Counter::ReduceFnNanos));
    out.push(
        "job.unattributed_s",
        job.wall_s - secs(s.map_wall_nanos) - secs(s.reduce_wall_nanos),
    );
    out.push("runner.map_wall_s", secs(s.map_wall_nanos));
    out.push("runner.reduce_wall_s", secs(s.reduce_wall_nanos));
    out.push("runner.task_retries", n(Counter::TaskRetries));
    out.push("sort.spill_cpu_s", seconds(Counter::SpillNanos));
    out.push("sort.merge_cpu_s", seconds(Counter::MergeNanos));
    out.push("sort.spills", n(Counter::Spills));
    out.push("sort.split_records", n(Counter::SortSplitRecords));
    out.push(
        "sort.cpu_share_pct",
        100.0
            * ratio(
                seconds(Counter::SpillNanos) + seconds(Counter::MergeNanos),
                job.cpu_s,
            ),
    );
    out.push("aggregate.map_output_records", n(Counter::MapOutputRecords));
    out.push(
        "aggregate.route_split_records",
        n(Counter::RouteSplitRecords),
    );
    out.push(
        "aggregate.output_per_input",
        ratio(n(Counter::MapOutputRecords), n(Counter::MapInputRecords)),
    );
    out.push("ifile.raw_bytes", n(Counter::MapOutputBytes));
    out.push("ifile.key_bytes", n(Counter::MapOutputKeyBytes));
    out.push("ifile.value_bytes", n(Counter::MapOutputValueBytes));
    out.push("ifile.framing_bytes", n(Counter::MapOutputFramingBytes));
    out.push("ifile.segments", n(Counter::MapOutputSegments));
    out.push("compress.compress_cpu_s", seconds(Counter::CompressNanos));
    out.push(
        "compress.decompress_cpu_s",
        seconds(Counter::DecompressNanos),
    );
    out.push(
        "compress.ratio",
        ratio(
            n(Counter::MapOutputMaterializedBytes),
            n(Counter::MapOutputBytes),
        ),
    );
    out.push(
        "compress.cpu_share_pct",
        100.0
            * ratio(
                seconds(Counter::CompressNanos) + seconds(Counter::DecompressNanos),
                job.cpu_s,
            ),
    );
    out.push(
        "shuffle.fetch_wait_s",
        seconds(Counter::ShuffleFetchWaitNanos),
    );
    out.push("shuffle.transfer_s", seconds(Counter::ShuffleTransferNanos));
    out.push("shuffle.spilled_bytes", n(Counter::ShuffleSpilledBytes));
    out.push("shuffle.spill_reads", n(Counter::ShuffleSpillReads));
    out.push(
        "shuffle.mem_high_water_bytes",
        n(Counter::ShuffleMemHighWater),
    );
    out.push("wire.saved_bytes", n(Counter::ShuffleWireBytesSaved));
    out.push("wire.lz_compress_cpu_s", seconds(Counter::LzCompressNanos));
    out.push(
        "wire.lz_decompress_cpu_s",
        seconds(Counter::LzDecompressNanos),
    );
}

/// The phase rollups of a traced job. In process mode worker spans are
/// not shipped back, so these read 0 for the wordcount.
pub fn push_trace(job: &JobRun, trace: &Trace, out: &mut Samples) {
    let (mut wall_sum, mut cpu_sum) = (0.0, 0.0);
    for phase in PHASES {
        let wall = secs(trace.phase_wall_nanos(phase));
        let cpu = secs(trace.phase_cpu_nanos(phase));
        out.push(&format!("trace.{}.wall_s", phase.name()), wall);
        out.push(&format!("trace.{}.cpu_s", phase.name()), cpu);
        wall_sum += wall;
        cpu_sum += cpu;
    }
    out.push("trace.phase_sum_wall_s", wall_sum);
    out.push("trace.phase_sum_cpu_s", cpu_sum);
    out.push(
        "trace.merge_gap_cpu_s",
        secs(job.result.counters.get(Counter::MergeNanos))
            - secs(trace.phase_cpu_nanos(Phase::Merge)),
    );
    out.push("trace.wall_s", job.wall_s);
}

#[cfg(test)]
mod tests {
    use super::*;
    use scihadoop_bench::json::{self, Json};

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    /// `BENCHMARK.json` names exactly the metrics this benchmark prints,
    /// with the same units and directions, and every workload it runs.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|e| {
                    let field = |f: &str| e.get(f).and_then(Json::as_str).expect(f).to_string();
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let table = |metrics: &[Metric]| -> Vec<(String, String, String)> {
            metrics
                .iter()
                .map(|m| (m.name.into(), m.unit.into(), m.better.into()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), table(&END_TO_END));
        assert_eq!(listed("per_layer"), table(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, crate::workload::NAMES);
    }
}
