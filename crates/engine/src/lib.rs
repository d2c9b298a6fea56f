//! Parallel batch-analysis engine for TWCA sweeps.
//!
//! Design-space studies (random priority assignments, generator sweeps,
//! sensitivity scans) analyze hundreds to millions of
//! [`twca_model::System`]s with the same pipeline: worst-case latencies
//! (Theorem 2), then deadline miss models over a set of window lengths
//! (Theorem 3). This crate turns that loop into a front end that
//!
//! * **fans out** across CPU cores ([`twca_model::fan_out`]) with
//!   deterministic, input-ordered results, bit-identical to serial ones;
//! * **memoizes** the expensive sub-computations (busy-window fixed
//!   points, latency analyses, overload budgets, distance lookups) in a
//!   shared [`AnalysisCache`], so repeated work across similar systems
//!   and across `k`-values is done once;
//! * reports **progress** through a pluggable callback and exposes
//!   cache effectiveness via [`BatchEngine::cache_stats`].
//!
//! Since the `twca-api` façade, the engine is a **thin thread fan-out
//! over [`twca_api::Session`]**: each batch slot runs
//! [`twca_api::Session::system_outcome`] — the same pipeline behind
//! `twca serve`'s `full` queries — and the verdict types are the shared
//! wire DTOs. Everything enters through [`BatchEngine::run`] on an
//! iterator of systems.
//!
//! # Examples
//!
//! ```
//! use twca_engine::BatchEngine;
//! use twca_model::case_study;
//!
//! let engine = BatchEngine::new().with_ks([1, 10]);
//! let batch = engine.run([case_study(), case_study()]);
//! assert_eq!(batch.len(), 2);
//! // Table I/II for the industrial case study:
//! let sigma_c = batch[0].chain("sigma_c").unwrap();
//! assert_eq!(sigma_c.worst_case_latency, Some(331));
//! assert_eq!(sigma_c.miss_models[1].bound, 5); // dmm(10) = 5
//! // The second (identical) system was answered from the cache.
//! assert!(engine.cache_stats().hits > 0);
//! ```

#![warn(missing_docs)]

mod json;
mod report;

pub use json::batch_to_json;
pub use report::{ChainVerdict, SystemVerdict};

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use twca_api::Session;
use twca_chains::AnalysisOptions;
pub use twca_chains::{AnalysisCache, CacheStats};
use twca_model::{available_threads, fan_out, System};

/// Progress observer: called with `(completed, total)` after every
/// finished system.
pub type ProgressFn = dyn Fn(usize, usize) + Send + Sync;

/// The batch-analysis front end; see the [module docs](self).
///
/// An engine owns one [`AnalysisCache`] that every run (serial or
/// parallel) shares; clone-cheap handles to the same cache can be
/// obtained with [`BatchEngine::cache`].
pub struct BatchEngine {
    threads: Option<usize>,
    ks: Vec<u64>,
    session: Session,
    progress: Option<Box<ProgressFn>>,
}

impl Default for BatchEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl BatchEngine {
    /// An engine with default options, `dmm` windows `[1, 10, 100]`, a
    /// fresh cache, and one worker per available core.
    pub fn new() -> Self {
        BatchEngine::from_session(Session::new())
    }

    /// An engine fanning out over an existing [`Session`] (sharing its
    /// cache and options).
    pub fn from_session(session: Session) -> Self {
        BatchEngine {
            threads: None,
            ks: vec![1, 10, 100],
            session,
            progress: None,
        }
    }

    /// Sets the number of worker threads (`1` runs on the calling thread).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Replaces the per-chain analysis options.
    #[must_use]
    pub fn with_options(mut self, options: AnalysisOptions) -> Self {
        self.session = self.session.with_options(options);
        self
    }

    /// Replaces the miss-model window lengths evaluated per chain.
    #[must_use]
    pub fn with_ks(mut self, ks: impl IntoIterator<Item = u64>) -> Self {
        self.ks = ks.into_iter().collect();
        self
    }

    /// Shares an existing cache (e.g. across engines or sessions).
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<AnalysisCache>) -> Self {
        self.session = self.session.with_cache(cache);
        self
    }

    /// Installs a progress observer.
    #[must_use]
    pub fn with_progress(
        mut self,
        progress: impl Fn(usize, usize) + Send + Sync + 'static,
    ) -> Self {
        self.progress = Some(Box::new(progress));
        self
    }

    /// The underlying session.
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// The shared cache handle.
    pub fn cache(&self) -> Arc<AnalysisCache> {
        self.session.cache()
    }

    /// Hit/miss counters of the shared cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.session.cache_stats()
    }

    /// Worker count the next [`BatchEngine::run`] will use.
    pub fn effective_threads(&self) -> usize {
        self.threads.unwrap_or_else(available_threads)
    }

    /// Analyzes every system, fanning out across
    /// [`BatchEngine::effective_threads`] workers.
    ///
    /// Results come back **in input order** and are bit-identical to
    /// [`BatchEngine::run_serial`] on the same input: each verdict is a
    /// pure function of its system, and the shared cache only ever
    /// returns values equal to what recomputation would produce.
    pub fn run(&self, systems: impl IntoIterator<Item = System>) -> Vec<SystemVerdict> {
        let jobs: Vec<System> = systems.into_iter().collect();
        let total = jobs.len();
        let done = AtomicUsize::new(0);
        fan_out(
            total,
            self.effective_threads(),
            || (),
            |_, index| {
                let verdict = self.analyze_one(index, &jobs[index]);
                let completed = done.fetch_add(1, Ordering::Relaxed) + 1;
                if let Some(progress) = &self.progress {
                    progress(completed, total);
                }
                verdict
            },
        )
    }

    /// Analyzes every system on the calling thread, still going through
    /// the shared cache. Reference implementation for equivalence tests
    /// and baseline benchmarks.
    pub fn run_serial(&self, systems: impl IntoIterator<Item = System>) -> Vec<SystemVerdict> {
        let jobs: Vec<System> = systems.into_iter().collect();
        let total = jobs.len();
        jobs.iter()
            .enumerate()
            .map(|(index, system)| {
                let verdict = self.analyze_one(index, system);
                if let Some(progress) = &self.progress {
                    progress(index + 1, total);
                }
                verdict
            })
            .collect()
    }

    /// The per-system pipeline, delegated to the façade: latency
    /// analysis per chain, then a `k`-sweep of the miss model for every
    /// deadline chain (see [`Session::system_outcome`]).
    fn analyze_one(&self, index: usize, system: &System) -> SystemVerdict {
        self.session.system_outcome(index, system, &self.ks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twca_model::case_study;

    #[test]
    fn parallel_equals_serial_on_copies_of_the_case_study() {
        let systems: Vec<System> = (0..8).map(|_| case_study()).collect();
        let engine = BatchEngine::new().with_ks([1, 3, 10, 76]).with_threads(4);
        let parallel = engine.run(systems.clone());
        let serial = BatchEngine::new()
            .with_ks([1, 3, 10, 76])
            .with_threads(1)
            .run_serial(systems);
        assert_eq!(parallel, serial);
        assert_eq!(parallel.len(), 8);
        assert_eq!(
            parallel[7].chain("sigma_c").unwrap().miss_models[3].bound,
            23
        );
    }

    #[test]
    fn cache_is_shared_across_systems() {
        let engine = BatchEngine::new().with_ks([10]);
        let _ = engine.run((0..4).map(|_| case_study()));
        let stats = engine.cache_stats();
        assert!(stats.hits > 0, "identical systems must share cache entries");
        assert!(stats.entries > 0);
    }

    #[test]
    fn progress_reports_every_system() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let calls = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&calls);
        let engine = BatchEngine::new()
            .with_ks([1])
            .with_threads(2)
            .with_progress(move |_done, total| {
                assert_eq!(total, 5);
                seen.fetch_add(1, Ordering::Relaxed);
            });
        let _ = engine.run((0..5).map(|_| case_study()));
        assert_eq!(calls.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn chains_without_deadline_have_no_miss_models() {
        let engine = BatchEngine::new();
        let batch = engine.run([case_study()]);
        let sigma_a = batch[0].chain("sigma_a").unwrap();
        assert!(sigma_a.miss_models.is_empty());
        assert!(sigma_a.overload);
    }
}
