//! The traced runner: the apps' worker closures repeated here, with every
//! `WorkerCtx` call wrapped in a host-time span.
//!
//! The closures, declarations and compute charges are copied from
//! `munin_apps::{matmul,sor,tsp}::run_munin` so a traced repetition sends the
//! same messages as an untraced one; `tests::traced_counts_equal_untraced`
//! holds them to that. Spans are kept in memory per node and written out once
//! the run ends.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

use munin_apps::workloads::{partition, sor_initial, sor_interior, tsp_distance_matrix, SOR_SIDES};
use munin_apps::RunMeasurement;
use munin_core::{
    AccessMode, CopysetStrategy, MuninConfig, MuninProgram, MuninReport, SharingAnnotation,
    WorkerCtx,
};
use munin_sim::EngineConfig;

use crate::workloads::{Output, Size, Workload, FLIGHT_EVENTS};

/// Matmul's abstract operations per inner-product step (`matmul.rs`).
const MATMUL_OPS_PER_MAC: u64 = 2;
/// SOR's abstract operations per element per iteration (`sor.rs`).
const SOR_OPS_PER_ELEMENT: u64 = 5 * 8;

/// The `WorkerCtx` call kinds the spans are named after.
pub const CALLS: [&str; 5] = ["read_slice", "write_slice", "barrier", "lock", "reduce"];

/// One `WorkerCtx` call: its kind, node, host start and end (ns since the
/// tracer's epoch), and the repetition that made it.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// One of [`CALLS`].
    pub name: &'static str,
    /// The calling node.
    pub node: usize,
    /// The repetition the call belongs to.
    pub rep: u32,
    /// Host start, ns since the epoch.
    pub start_ns: u64,
    /// Host end, ns since the epoch.
    pub end_ns: u64,
}

/// In-memory span store, one buffer per node so worker threads never contend.
pub struct Tracer {
    epoch: Instant,
    buffers: Vec<Mutex<Vec<Span>>>,
}

impl Tracer {
    /// A tracer for clusters of up to `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        Tracer {
            epoch: Instant::now(),
            buffers: (0..nodes).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// Runs `f` as call `name` of `node` in repetition `rep`, recording it.
    fn span<T>(&self, node: usize, rep: u32, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.buffers[node]
            .lock()
            .expect("a worker panicked while recording a span")
            .push(Span {
                name,
                node,
                rep,
                start_ns,
                end_ns,
            });
        out
    }

    /// Every recorded span, ordered by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut all: Vec<Span> = self
            .buffers
            .iter()
            .flat_map(|b| b.lock().expect("span buffer poisoned").clone())
            .collect();
        all.sort_by_key(|s| s.start_ns);
        all
    }

    /// Renders the spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans() {
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"node\":{},\"rep\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.node, s.rep, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// The spans of one node in one repetition.
struct NodeSpans<'a> {
    tracer: &'a Tracer,
    node: usize,
    rep: u32,
}

impl NodeSpans<'_> {
    fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.tracer.span(self.node, self.rep, name, f)
    }
}

/// What one traced repetition yields.
pub struct TracedRep {
    /// The run's measurement, built as `run_munin` builds it.
    pub measurement: RunMeasurement,
    /// Flight-recorder events evicted, summed over nodes.
    pub events_dropped: u64,
    /// The program output.
    pub output: Output,
}

/// Runs one traced repetition of `w` under engine seed `seed`.
pub fn run(
    w: Workload,
    size: Size,
    seed: u64,
    rep: u32,
    tracer: &Tracer,
) -> munin_core::Result<TracedRep> {
    let override_ = (w == Workload::SorConv16).then_some(SharingAnnotation::Conventional);
    // `tsp::run_munin` keeps the config's default page size.
    let page_size = match w {
        Workload::Tsp8 => munin_core::DEFAULT_PAGE_SIZE,
        _ => size.page_size(),
    };
    let mut cfg = MuninConfig::paper(size.procs(w))
        .with_cost(size.cost())
        .with_page_size(page_size)
        .with_copyset_strategy(CopysetStrategy::Broadcast)
        .with_engine(EngineConfig::seeded(seed))
        .with_access_mode(AccessMode::Explicit)
        .with_piggyback(true)
        .with_flight_events(FLIGHT_EVENTS);
    if let Some(ann) = override_ {
        cfg = cfg.with_annotation_override(ann);
    }
    match w {
        Workload::Matmul8 => matmul(cfg, size.matmul_n(), rep, tracer),
        Workload::Sor16 | Workload::SorConv16 => sor(cfg, size.sor_shape(), rep, tracer),
        Workload::Tsp8 => tsp(cfg, size.tsp_cities(), rep, tracer),
    }
}

/// Builds the measurement `run_munin` would, plus the evicted-event count.
fn finish<R>(
    report: &MuninReport<R>,
    procs: usize,
    output: Output,
) -> munin_core::Result<TracedRep> {
    if let Some(err) = report.first_error() {
        return Err(err.clone());
    }
    let measurement = RunMeasurement::new(
        "munin/traced",
        procs,
        report.elapsed,
        report.root_times(),
        report.net.clone(),
    )
    .with_stats(report.stats_total())
    .with_engine_stats(report.engine_stats.clone())
    .with_obs(report.obs_total())
    .with_trace_digest(report.trace_digest);
    Ok(TracedRep {
        measurement,
        events_dropped: report.obs.iter().map(|o| o.events_dropped).sum(),
        output,
    })
}

fn matmul(cfg: MuninConfig, n: usize, rep: u32, tracer: &Tracer) -> munin_core::Result<TracedRep> {
    use munin_apps::workloads::{matmul_a, matmul_b};
    let procs = cfg.nodes;
    let mut prog = MuninProgram::new(cfg);
    let input1 = prog.declare::<i32>("input1", n * n, SharingAnnotation::ReadOnly);
    let input2 = prog.declare::<i32>("input2", n * n, SharingAnnotation::ReadOnly);
    let output = prog.declare::<i32>("output", n * n, SharingAnnotation::Result);
    let done = prog.create_barrier("done");
    prog.user_init(move |init| {
        let zero_row = vec![0i32; n];
        for i in 0..n {
            let row_a: Vec<i32> = (0..n).map(|j| matmul_a(i, j)).collect();
            let row_b: Vec<i32> = (0..n).map(|j| matmul_b(i, j)).collect();
            init.write_slice(&input1, i * n, &row_a).unwrap();
            init.write_slice(&input2, i * n, &row_b).unwrap();
            init.write_slice(&output, i * n, &zero_row).unwrap();
        }
    });
    let report = prog.run(|ctx: &WorkerCtx<'_>| {
        let me = ctx.node_id();
        let t = NodeSpans {
            tracer,
            node: me,
            rep,
        };
        let (lo, hi) = partition(n, ctx.nodes(), me);
        if lo < hi {
            let a_band = t.span("read_slice", || {
                ctx.read_slice(&input1, lo * n, (hi - lo) * n)
            })?;
            let b = t.span("read_slice", || ctx.read_slice(&input2, 0, n * n))?;
            let c_band = multiply_band(n, hi - lo, &a_band, &b);
            ctx.compute(((hi - lo) * n * n) as u64 * MATMUL_OPS_PER_MAC);
            t.span("write_slice", || ctx.write_slice(&output, lo * n, &c_band))?;
        }
        t.span("barrier", || ctx.wait_at_barrier(done))?;
        if me == 0 {
            t.span("read_slice", || ctx.read_slice(&output, 0, n * n))?;
        }
        Ok(())
    })?;
    let c = report.read_root_slice(&output);
    finish(&report, procs, Output::Matmul(c))
}

/// `matmul.rs`'s product of a band of `rows` rows of `A` with all of `B`.
fn multiply_band(n: usize, rows: usize, a_band: &[i32], b: &[i32]) -> Vec<i32> {
    let mut c = vec![0i32; rows * n];
    for r in 0..rows {
        for k in 0..n {
            let aik = a_band[r * n + k];
            for j in 0..n {
                c[r * n + j] = c[r * n + j].wrapping_add(aik.wrapping_mul(b[k * n + j]));
            }
        }
    }
    c
}

fn sor(
    cfg: MuninConfig,
    (rows, cols, iterations): (usize, usize, usize),
    rep: u32,
    tracer: &Tracer,
) -> munin_core::Result<TracedRep> {
    let procs = cfg.nodes;
    let mut prog = MuninProgram::new(cfg);
    let matrix = prog.declare::<f64>("matrix", rows * cols, SharingAnnotation::ProducerConsumer);
    let computed = prog.create_barrier("computed");
    let copied = prog.create_barrier("copied");
    prog.user_init(move |init| {
        let grid = sor_initial(rows, cols);
        init.write_slice(&matrix, 0, &grid[0..cols]).unwrap();
        init.write_slice(&matrix, (rows - 1) * cols, &grid[(rows - 1) * cols..])
            .unwrap();
    });
    let report = prog.run(|ctx: &WorkerCtx<'_>| {
        let me = ctx.node_id();
        let t = NodeSpans {
            tracer,
            node: me,
            rep,
        };
        let (lo, hi) = partition(rows, ctx.nodes(), me);
        for gi in lo..hi {
            if gi == 0 || gi == rows - 1 {
                continue;
            }
            let row: Vec<f64> = (0..cols)
                .map(|j| {
                    if j == 0 || j == cols - 1 {
                        SOR_SIDES
                    } else {
                        sor_interior(gi, j)
                    }
                })
                .collect();
            t.span("write_slice", || ctx.write_slice(&matrix, gi * cols, &row))?;
        }
        ctx.compute(((hi - lo) * cols) as u64);
        t.span("barrier", || ctx.wait_at_barrier(copied))?;
        ctx.phase_change();
        let mut section: Vec<f64> = Vec::new();
        for _iter in 0..iterations {
            let win_start = lo.saturating_sub(1);
            let win_end = (hi + 1).min(rows);
            let window = t.span("read_slice", || {
                ctx.read_slice(&matrix, win_start * cols, (win_end - win_start) * cols)
            })?;
            let scratch = relax_section(cols, rows, lo, hi, &window, win_start);
            ctx.compute(((hi - lo) * cols) as u64 * SOR_OPS_PER_ELEMENT);
            t.span("barrier", || ctx.wait_at_barrier(computed))?;
            t.span("write_slice", || {
                ctx.write_slice(&matrix, lo * cols, &scratch)
            })?;
            ctx.compute(((hi - lo) * cols) as u64);
            section = scratch;
            t.span("barrier", || ctx.wait_at_barrier(copied))?;
        }
        Ok(section)
    })?;
    let mut grid = sor_initial(rows, cols);
    for (w, result) in report.results.iter().enumerate() {
        let (lo, hi) = partition(rows, procs, w);
        if let Ok(section) = result {
            if iterations > 0 && lo < hi {
                grid[lo * cols..hi * cols].copy_from_slice(section);
            }
        }
    }
    finish(&report, procs, Output::Sor(grid))
}

/// `sor.rs`'s scratch computation for rows `[lo, hi)` of a window whose
/// first row is global row `win_start`.
fn relax_section(
    cols: usize,
    rows_total: usize,
    lo: usize,
    hi: usize,
    window: &[f64],
    win_start: usize,
) -> Vec<f64> {
    let mut out = vec![0.0f64; (hi - lo) * cols];
    for gi in lo..hi {
        let w = gi - win_start;
        if gi == 0 || gi == rows_total - 1 {
            out[(gi - lo) * cols..(gi - lo + 1) * cols]
                .copy_from_slice(&window[w * cols..(w + 1) * cols]);
            continue;
        }
        for j in 0..cols {
            let idx = (gi - lo) * cols + j;
            out[idx] = if j == 0 || j == cols - 1 {
                window[w * cols + j]
            } else {
                (window[(w - 1) * cols + j]
                    + window[(w + 1) * cols + j]
                    + window[w * cols + j - 1]
                    + window[w * cols + j + 1])
                    / 4.0
            };
        }
    }
    out
}

fn tsp(
    cfg: MuninConfig,
    cities: usize,
    rep: u32,
    tracer: &Tracer,
) -> munin_core::Result<TracedRep> {
    let procs = cfg.nodes;
    let mut prog = MuninProgram::new(cfg);
    let dist = prog.declare::<i64>("distances", cities * cities, SharingAnnotation::ReadOnly);
    let best_len = prog.declare::<i64>("best_len", 1, SharingAnnotation::Reduction);
    let best_tour = prog.declare::<i64>("best_tour", cities, SharingAnnotation::Migratory);
    let tour_lock = prog.create_lock("best_tour_lock");
    prog.associate_data_and_synch(tour_lock, &best_tour);
    let done = prog.create_barrier("done");
    prog.user_init(move |init| {
        init.write_slice(&dist, 0, &tsp_distance_matrix(cities))
            .unwrap();
        init.write(&best_len, 0, i64::MAX).unwrap();
    });
    let report = prog.run(|ctx: &WorkerCtx<'_>| {
        let me = ctx.node_id();
        let t = NodeSpans {
            tracer,
            node: me,
            rep,
        };
        let d = t.span("read_slice", || ctx.read_slice(&dist, 0, cities * cities))?;
        let mut local_best_tour: Vec<i64> = Vec::new();
        for first in 1..cities {
            if (first - 1) % ctx.nodes() != me {
                continue;
            }
            let before = t.span("reduce", || ctx.fetch_and_min_i64(&best_len, 0, i64::MAX))?;
            let mut used = vec![false; cities];
            used[0] = true;
            used[first] = true;
            let mut search = Search {
                cities,
                dist: &d,
                tour: vec![0i64, first as i64],
                used,
                bound: before,
                best_tour: &mut local_best_tour,
                explored: 0,
            };
            search.run(d[first]);
            let (bound, explored) = (search.bound, search.explored);
            ctx.compute(explored * 4);
            if bound < before {
                let previous = t.span("reduce", || ctx.fetch_and_min_i64(&best_len, 0, bound))?;
                if bound < previous {
                    t.span("lock", || ctx.acquire_lock(tour_lock))?;
                    let current =
                        t.span("reduce", || ctx.fetch_and_min_i64(&best_len, 0, bound))?;
                    if bound <= current {
                        t.span("write_slice", || {
                            ctx.write_slice(&best_tour, 0, &local_best_tour)
                        })?;
                    }
                    t.span("lock", || ctx.release_lock(tour_lock))?;
                }
            }
        }
        t.span("barrier", || ctx.wait_at_barrier(done))?;
        let final_len = t.span("reduce", || ctx.fetch_and_min_i64(&best_len, 0, i64::MAX))?;
        t.span("lock", || ctx.acquire_lock(tour_lock))?;
        t.span("read_slice", || ctx.read_slice(&best_tour, 0, cities))?;
        t.span("lock", || ctx.release_lock(tour_lock))?;
        Ok(final_len)
    })?;
    let best = report.results[0].as_ref().copied().unwrap_or(i64::MAX);
    finish(&report, procs, Output::Tsp(best))
}

/// `tsp.rs`'s sequential branch-and-bound below a fixed first hop.
struct Search<'a> {
    cities: usize,
    dist: &'a [i64],
    tour: Vec<i64>,
    used: Vec<bool>,
    bound: i64,
    best_tour: &'a mut Vec<i64>,
    explored: u64,
}

impl Search<'_> {
    fn run(&mut self, len: i64) {
        self.explored += 1;
        if len >= self.bound {
            return;
        }
        let cities = self.cities;
        if self.tour.len() == cities {
            let total = len + self.dist[(self.tour[cities - 1] as usize) * cities];
            if total < self.bound {
                self.bound = total;
                self.best_tour.clone_from(&self.tour);
            }
            return;
        }
        let last = *self.tour.last().expect("tour is never empty") as usize;
        for next in 1..cities {
            if !self.used[next] {
                self.used[next] = true;
                self.tour.push(next as i64);
                self.run(len + self.dist[last * cities + next]);
                self.tour.pop();
                self.used[next] = false;
            }
        }
    }
}
