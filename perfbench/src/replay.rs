//! The diff layer timed on sor-16's own page changes.
//!
//! For each iteration `t` the twin is a page of the serial grid after `t`
//! iterations and the current copy is the same page after `t + 1`, which is
//! what a SOR worker's flush encodes. Every page of every iteration goes
//! through `munin_core::diff::encode`, then `diff::apply` onto a copy of the
//! twin, which must reproduce the current page.

use std::hint::black_box;
use std::time::Instant;

use munin_apps::sor;
use munin_core::diff;

use crate::stats::median;
use crate::workloads::Size;

/// Per-page diff costs, medians over the replay passes.
pub struct DiffTiming {
    /// Host ns to encode one page.
    pub encode_ns_per_page: f64,
    /// Host ns to apply one page's diff.
    pub apply_ns_per_page: f64,
    /// Encoded bytes per page.
    pub bytes_per_page: f64,
    /// Whether every applied diff reproduced its current page.
    pub ok: bool,
}

/// The SOR grid's bytes after each of `0..=iterations` iterations.
pub fn history(size: Size) -> Vec<Vec<u8>> {
    let (rows, cols, iterations) = size.sor_shape();
    (0..=iterations)
        .map(|t| {
            sor::serial(rows, cols, t)
                .iter()
                .flat_map(|x| x.to_le_bytes())
                .collect()
        })
        .collect()
}

/// Replays `history` page by page `passes` times.
pub fn replay(history: &[Vec<u8>], page_size: usize, passes: usize) -> DiffTiming {
    let mut encode = Vec::with_capacity(passes);
    let mut apply = Vec::with_capacity(passes);
    let mut ok = true;
    let mut bytes = 0usize;
    let mut pages = 0usize;
    for _ in 0..passes {
        let (mut encode_ns, mut apply_ns) = (0u128, 0u128);
        bytes = 0;
        pages = 0;
        for step in history.windows(2) {
            let (twin, current) = (&step[0], &step[1]);
            let start = Instant::now();
            let diffs: Vec<diff::Diff> = current
                .chunks(page_size)
                .zip(twin.chunks(page_size))
                .map(|(cur, tw)| diff::encode(black_box(cur), black_box(tw)))
                .collect();
            encode_ns += start.elapsed().as_nanos();
            let mut target = twin.clone();
            let start = Instant::now();
            for (d, page) in diffs.iter().zip(target.chunks_mut(page_size)) {
                ok &= diff::apply(d, page).is_ok();
            }
            apply_ns += start.elapsed().as_nanos();
            ok &= black_box(&target) == current;
            bytes += diffs.iter().map(|d| d.encoded_bytes()).sum::<usize>();
            pages += diffs.len();
        }
        encode.push(encode_ns as f64 / pages.max(1) as f64);
        apply.push(apply_ns as f64 / pages.max(1) as f64);
    }
    DiffTiming {
        encode_ns_per_page: median(&encode),
        apply_ns_per_page: median(&apply),
        bytes_per_page: bytes as f64 / pages.max(1) as f64,
        ok,
    }
}
