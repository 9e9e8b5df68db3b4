//! Shared-storage PIF: one history buffer + index serving multiple cores.
//!
//! The paper (§4) notes that "storage benefits can be attained by sharing
//! predictor structures among multiple cores or virtualizing the
//! predictor storage in the L2 cache", but evaluates dedicated per-core
//! hardware for clarity. This module implements the sharing extension:
//! cores running the same server binary record into, and predict from,
//! one [`SharedPifStorage`], so 16 cores pay for one history buffer
//! instead of 16.
//!
//! Per-core state (spatial/temporal compactors and SABs) stays private —
//! those track a single core's pipeline. Only the learned history and its
//! index are shared, which is also where nearly all the storage lives.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use pif_core::shared::{SharedPif, SharedPifStorage};
//! use pif_core::PifConfig;
//! use pif_sim::Prefetcher;
//!
//! let storage = Arc::new(SharedPifStorage::new(PifConfig::paper_default()));
//! let core0 = SharedPif::attach(Arc::clone(&storage));
//! let core1 = SharedPif::attach(Arc::clone(&storage));
//! assert_eq!(core0.name(), "PIF-shared");
//! drop((core0, core1));
//! ```

use std::sync::{Arc, PoisonError, RwLock};

use pif_sim::cache::AccessOutcome;
use pif_sim::{PrefetchContext, Prefetcher};
use pif_types::{BlockAddr, FetchAccess, RetiredInstr, TrapLevel};

use crate::config::PifConfig;
use crate::history::HistoryBuffer;
use crate::index::IndexTable;
use crate::sab::SabPool;
use crate::spatial::SpatialCompactor;
use crate::temporal::TemporalCompactor;

/// One trap level's shared learned state.
#[derive(Debug)]
struct SharedLevel {
    history: HistoryBuffer,
    index: IndexTable,
}

/// History and index shared by all attached cores.
#[derive(Debug)]
pub struct SharedPifStorage {
    config: PifConfig,
    levels: Vec<RwLock<SharedLevel>>,
}

impl SharedPifStorage {
    /// Creates shared storage for the given design point.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid.
    pub fn new(config: PifConfig) -> Self {
        config.validate().expect("invalid PIF configuration");
        let levels = if config.separate_trap_levels {
            TrapLevel::COUNT
        } else {
            1
        };
        SharedPifStorage {
            config,
            levels: (0..levels)
                .map(|_| {
                    RwLock::new(SharedLevel {
                        history: HistoryBuffer::new(config.history_capacity),
                        index: IndexTable::new(config.index_entries, config.index_ways)
                            .expect("validated geometry"),
                    })
                })
                .collect(),
        }
    }

    /// The design point.
    pub fn config(&self) -> &PifConfig {
        &self.config
    }

    /// Records currently held for `level` (for diagnostics).
    pub fn history_len(&self, level: TrapLevel) -> usize {
        let idx = if self.config.separate_trap_levels {
            level.index()
        } else {
            0
        };
        self.levels[idx]
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .history
            .len()
    }
}

/// Per-core private compaction state.
#[derive(Debug)]
struct CoreLevel {
    spatial: SpatialCompactor,
    temporal: TemporalCompactor,
}

/// A core's view of shared PIF storage: private compactors and SABs,
/// shared history/index.
#[derive(Debug)]
pub struct SharedPif {
    storage: Arc<SharedPifStorage>,
    locals: Vec<CoreLevel>,
    sabs: SabPool,
    /// Reusable scratch for SAB advance/allocate records.
    records_scratch: Vec<pif_types::SpatialRegionRecord>,
}

impl SharedPif {
    /// Attaches a core to shared storage.
    pub fn attach(storage: Arc<SharedPifStorage>) -> Self {
        let config = storage.config;
        let levels = storage.levels.len();
        SharedPif {
            storage,
            locals: (0..levels)
                .map(|_| CoreLevel {
                    spatial: SpatialCompactor::new(config.geometry),
                    temporal: TemporalCompactor::new(config.temporal_entries),
                })
                .collect(),
            sabs: SabPool::new(config.sab_count, config.sab_window),
            records_scratch: Vec::new(),
        }
    }

    fn level_index(&self, tl: TrapLevel) -> usize {
        if self.storage.config.separate_trap_levels {
            tl.index()
        } else {
            0
        }
    }

    fn issue_region_prefetches(&self, ctx: &mut PrefetchContext<'_>) {
        for rec in &self.records_scratch {
            for block in rec.blocks_in_order(self.storage.config.geometry) {
                ctx.prefetch(block);
            }
        }
    }
}

impl Prefetcher for SharedPif {
    fn name(&self) -> &'static str {
        "PIF-shared"
    }

    fn on_access_outcome(
        &mut self,
        access: &FetchAccess,
        block: BlockAddr,
        _outcome: AccessOutcome,
        ctx: &mut PrefetchContext<'_>,
    ) {
        let level = self.level_index(access.trap_level);
        let geometry = self.storage.config.geometry;

        // Advance active streams under a read lock.
        {
            let shared = self.storage.levels[level]
                .read()
                .unwrap_or_else(PoisonError::into_inner);
            if self.sabs.advance(
                level,
                block,
                geometry,
                &shared.history,
                &mut self.records_scratch,
            ) {
                drop(shared);
                self.issue_region_prefetches(ctx);
                return;
            }
        }

        if ctx.was_prefetched(block) {
            return;
        }

        // Open a new stream: index lookup mutates LRU state, so take the
        // write lock.
        {
            let mut shared = self.storage.levels[level]
                .write()
                .unwrap_or_else(PoisonError::into_inner);
            let Some(pos) = shared.index.lookup(block) else {
                return;
            };
            let Some(entry) = shared.history.get(pos) else {
                return;
            };
            let jump = shared.history.block_position() - entry.block_position;
            let _completed = self.sabs.allocate(
                level,
                pos,
                jump,
                geometry,
                &shared.history,
                &mut self.records_scratch,
            );
        }
        self.issue_region_prefetches(ctx);
    }

    fn on_retire(
        &mut self,
        instr: &RetiredInstr,
        prefetched: bool,
        _ctx: &mut PrefetchContext<'_>,
    ) {
        let level = self.level_index(instr.trap_level);
        let local = &mut self.locals[level];
        let Some(finished) = local.spatial.observe(instr.pc.block(), !prefetched) else {
            return;
        };
        let Some(admitted) = local.temporal.filter(finished) else {
            return;
        };
        let mut shared = self.storage.levels[level]
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        let pos = shared
            .history
            .append(admitted.record, admitted.trigger_not_prefetched);
        if admitted.trigger_not_prefetched {
            shared.index.insert(admitted.record.trigger, pos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pif_sim::multicore::run_cmp;
    use pif_sim::RunOptions;
    use pif_sim::{Engine, EngineConfig, NoPrefetcher};
    use pif_types::Address;

    fn sweep(blocks: u64, reps: u64, stride: u64) -> Vec<RetiredInstr> {
        let mut v = Vec::new();
        for _ in 0..reps {
            for blk in 0..blocks {
                for i in 0..8 {
                    v.push(RetiredInstr::simple(
                        Address::new((blk + stride) * 64 + i * 8),
                        TrapLevel::Tl0,
                    ));
                }
            }
        }
        v
    }

    #[test]
    fn shared_pif_prefetches_like_private_pif() {
        let trace = sweep(2048, 4, 0);
        let engine = Engine::new(EngineConfig::paper_default());
        let base = engine.run(trace.iter().copied(), NoPrefetcher, RunOptions::new());
        let storage = Arc::new(SharedPifStorage::new(PifConfig::paper_default()));
        let shared = engine.run(
            trace.iter().copied(),
            SharedPif::attach(storage),
            RunOptions::new(),
        );
        let private = engine.run(
            trace.iter().copied(),
            crate::Pif::new(PifConfig::paper_default()),
            RunOptions::new(),
        );
        assert!(shared.miss_coverage() > 0.6, "{}", shared.miss_coverage());
        assert!(
            (shared.miss_coverage() - private.miss_coverage()).abs() < 0.05,
            "single-core shared ({}) should match private ({})",
            shared.miss_coverage(),
            private.miss_coverage()
        );
        assert!(shared.speedup_over(&base) > 1.05);
    }

    #[test]
    fn cores_learn_from_each_other() {
        // Core 0 executes the code first; core 1 starts later but fetches
        // the same code. With shared storage, core 1's streams are warm
        // from the start of its second pass even though IT never... in
        // fact even its first pass can hit streams recorded by core 0.
        // We approximate by running cores over identical traces in a CMP
        // and checking aggregate coverage stays high.
        let storage = Arc::new(SharedPifStorage::new(PifConfig::paper_default()));
        let report = run_cmp(
            &EngineConfig::paper_default(),
            4,
            0,
            |_| sweep(2048, 3, 0),
            |_| SharedPif::attach(Arc::clone(&storage)),
        );
        let cov = report.miss_coverage();
        assert!(cov.mean > 0.5, "shared coverage {cov:?}");
        assert!(storage.history_len(TrapLevel::Tl0) > 0);
    }

    #[test]
    fn shared_storage_is_thread_safe() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SharedPifStorage>();
        fn assert_send<T: Send>() {}
        assert_send::<SharedPif>();
    }

    #[test]
    fn attach_does_not_duplicate_storage() {
        let storage = Arc::new(SharedPifStorage::new(PifConfig::paper_default()));
        let _a = SharedPif::attach(Arc::clone(&storage));
        let _b = SharedPif::attach(Arc::clone(&storage));
        assert_eq!(Arc::strong_count(&storage), 3);
    }
}
