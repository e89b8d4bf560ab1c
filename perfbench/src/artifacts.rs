//! The `artifacts` workload: the quick-profile results regeneration
//! through the harness's sweep executor and result cache, checked
//! against the committed `results_quick.txt`.

use crate::host::HostSpeed;
use speedbal_harness::experiments::{self as ex, Profile};
use speedbal_harness::sweep::{self, SweepStats};
use std::path::PathBuf;
use std::time::Instant;

/// The profile `results_quick.txt` was generated with.
pub const QUICK: Profile = Profile {
    scale: 0.25,
    repeats: 5,
};

/// Sweep workers: the benchmark never runs more than two threads.
pub const JOBS: usize = 2;

/// The committed capture every rendered table must appear in verbatim.
pub const REFERENCE: &str = "results_quick.txt";

fn fig2() -> Vec<String> {
    vec![ex::fig2(QUICK).render()]
}
fn tab2() -> Vec<String> {
    vec![ex::tab2(QUICK).render()]
}
fn fig6() -> Vec<String> {
    vec![ex::fig6(QUICK).render()]
}
fn barriers() -> Vec<String> {
    vec![ex::barriers(QUICK).render()]
}
fn numa() -> Vec<String> {
    vec![ex::numa(QUICK).render()]
}
fn serve() -> Vec<String> {
    vec![
        ex::serve_offered_load(QUICK).render(),
        ex::serve_shapes(QUICK).render(),
        ex::serve_mixed(QUICK).render(),
    ]
}
fn hetero() -> Vec<String> {
    vec![
        ex::hetero_spmd(QUICK).render(),
        ex::hetero_serve(QUICK).render(),
    ]
}

/// Renders one experiment's tables.
pub type Render = fn() -> Vec<String>;

/// The simulated artifacts, in `speedbal-cli all` order: 137 cells.
pub const EXPERIMENTS: [(&str, Render); 7] = [
    ("fig2", fig2),
    ("tab2", tab2),
    ("fig6", fig6),
    ("barriers", barriers),
    ("numa", numa),
    ("serve", serve),
    ("hetero", hetero),
];

/// The artifacts that need no simulation (analytic Figure 1 and the
/// Table 1 machine models): the fixed preface of a regeneration, timed
/// as the workload's set-up.
pub fn setup_tables() -> Vec<String> {
    vec![ex::fig1().render(), ex::tab1().render()]
}

/// Indices of `tables` that do not appear verbatim in `reference`.
pub fn missing_from(reference: &str, tables: &[String]) -> Vec<usize> {
    (0..tables.len())
        .filter(|&i| !reference.contains(tables[i].as_str()))
        .collect()
}

/// A private, initially empty result cache for this process; removed and
/// detached again on drop.
pub struct PrivateCache {
    dir: PathBuf,
}

impl PrivateCache {
    pub fn new(dir: PathBuf) -> std::io::Result<PrivateCache> {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        let cache = PrivateCache { dir };
        cache.activate();
        Ok(cache)
    }

    /// Points the sweep executor at this cache.
    pub fn activate(&self) {
        sweep::set_cache_dir(Some(self.dir.clone()));
        sweep::set_cache_cap_bytes(Some(sweep::DEFAULT_CACHE_CAP_BYTES));
        sweep::set_cache_enabled(true);
        sweep::set_jobs(Some(JOBS));
    }

    /// Bytes of cached results on disk.
    pub fn bytes(&self) -> u64 {
        std::fs::read_dir(&self.dir)
            .map(|entries| {
                entries
                    .filter_map(|e| e.ok()?.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    }
}

impl Drop for PrivateCache {
    fn drop(&mut self) {
        sweep::set_cache_enabled(false);
        sweep::set_cache_dir(None);
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One experiment of a pass: its rendered tables and host time.
pub struct Part {
    pub name: &'static str,
    pub start: Instant,
    pub secs: f64,
    /// Host-speed factor from kernel runs on either side (1 when not
    /// calibrated).
    pub scale: f64,
    pub tables: Vec<String>,
}

/// Runs one experiment, calibrating the host speed on either side of it
/// when `speed` is given.
pub fn part(name: &'static str, render: Render, mut speed: Option<&mut HostSpeed>) -> Part {
    let before = speed.as_deref_mut().map_or(1.0, HostSpeed::scale);
    let start = Instant::now();
    let tables = render();
    let secs = start.elapsed().as_secs_f64();
    let after = speed.map_or(1.0, HostSpeed::scale);
    Part {
        name,
        start,
        secs,
        scale: (before + after) / 2.0,
        tables,
    }
}

/// One regeneration of every simulated artifact.
pub struct Pass {
    pub parts: Vec<Part>,
    pub secs: f64,
    /// Executor statistics of this pass alone.
    pub stats: SweepStats,
}

impl Pass {
    pub fn tables(&self) -> impl Iterator<Item = &String> {
        self.parts.iter().flat_map(|p| p.tables.iter())
    }
}

/// Executor statistics accumulated since the `before` snapshot.
pub fn stats_since(before: SweepStats) -> SweepStats {
    let after = sweep::sweep_stats();
    SweepStats {
        cells: after.cells - before.cells,
        cache_hits: after.cache_hits - before.cache_hits,
        cache_misses: after.cache_misses - before.cache_misses,
        evictions: after.evictions - before.evictions,
        wall_secs: after.wall_secs - before.wall_secs,
    }
}

/// Regenerates every artifact once through the current cache,
/// calibrating around each experiment when `speed` is given.
pub fn pass(mut speed: Option<&mut HostSpeed>) -> Pass {
    let before = sweep::sweep_stats();
    let t = Instant::now();
    let parts = EXPERIMENTS
        .iter()
        .map(|&(name, render)| part(name, render, speed.as_deref_mut()))
        .collect();
    Pass {
        parts,
        secs: t.elapsed().as_secs_f64(),
        stats: stats_since(before),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_tables_match_the_committed_capture() {
        let reference = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("..")
                .join(REFERENCE),
        )
        .expect("results_quick.txt is committed at the repository root");
        assert!(missing_from(&reference, &setup_tables()).is_empty());
        assert_eq!(missing_from(&reference, &["no such table".into()]), vec![0]);
    }
}
