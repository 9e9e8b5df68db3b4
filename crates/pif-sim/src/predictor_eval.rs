//! Temporal-stream predictor evaluation harness (paper §2, Figure 2).
//!
//! Measures how well "record the stream, replay it when its head recurs"
//! predicts the correct-path L1-I miss stream, when the recorded stream is
//! taken from each of the four observation points in
//! [`crate::streams::StreamPoint`]. As in the paper, *the processor is
//! undisturbed*: predictions are tracked but nothing is prefetched.

use std::collections::{HashMap, VecDeque};

use pif_types::{BlockAddr, RetiredInstr, TrapLevel};

use crate::cache::{AccessOutcome, InstructionCache};
use crate::config::EngineConfig;
use crate::frontend::{FrontEnd, FrontendEvent};
use crate::streams::{BlockDedup, StreamPoint};

/// Tuning of the idealized temporal-stream predictor used in the §2 study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TemporalPredictorConfig {
    /// Lookahead window for access/retire-order streams: how many upcoming
    /// recorded blocks an active stream exposes for matching. These
    /// streams advance on every fetch, so the window must absorb loop
    /// repetitions in the raw (uncompacted) recording.
    pub window: usize,
    /// Lookahead window for the *miss* stream. A miss record spans far
    /// more execution time than an access/retire record, so an equal
    /// execution-time horizon corresponds to a much smaller record count.
    pub miss_window: usize,
    /// Number of concurrently active streams (LRU-replaced).
    pub pool: usize,
    /// History capacity in records; `None` = unbounded (the paper's §2
    /// study and Fig. 10's "without history storage limitations").
    pub history_capacity: Option<usize>,
}

impl Default for TemporalPredictorConfig {
    fn default() -> Self {
        TemporalPredictorConfig {
            // The §2 study is an idealized limit ("replaying the recorded
            // sequence"): a deep window tolerates loop repetitions in the
            // raw streams, which the real PIF design instead removes via
            // region compaction (§3.2). The miss window matches the same
            // execution-time horizon at miss-record granularity.
            window: 512,
            miss_window: 24,
            pool: 16,
            history_capacity: None,
        }
    }
}

/// Per-context (e.g. per-trap-level) recorded history with an index of the
/// most recent occurrence of each block.
#[derive(Debug, Default)]
struct ContextHistory {
    /// Recorded blocks; `history[i]` is global position `base + i`.
    history: VecDeque<BlockAddr>,
    base: u64,
    /// Block -> most recent global position.
    index: HashMap<u64, u64>,
    dedup: BlockDedup,
    capacity: Option<usize>,
}

impl ContextHistory {
    fn new(capacity: Option<usize>) -> Self {
        ContextHistory {
            capacity,
            ..Default::default()
        }
    }

    fn end(&self) -> u64 {
        self.base + self.history.len() as u64
    }

    fn get(&self, pos: u64) -> Option<BlockAddr> {
        if pos < self.base {
            return None;
        }
        self.history.get((pos - self.base) as usize).copied()
    }

    /// Records one observation; consecutive duplicates are collapsed.
    fn observe(&mut self, block: BlockAddr) {
        if !self.dedup.observe(block) {
            return;
        }
        let pos = self.end();
        self.history.push_back(block);
        self.index.insert(block.number(), pos);
        if let Some(cap) = self.capacity {
            while self.history.len() > cap {
                self.history.pop_front();
                self.base += 1;
            }
        }
    }

    /// Most recent recorded position of `block`, if still in history.
    fn lookup(&self, block: BlockAddr) -> Option<u64> {
        let &pos = self.index.get(&block.number())?;
        (pos >= self.base).then_some(pos)
    }
}

#[derive(Debug)]
struct ReplayStream {
    context: usize,
    next_pos: u64,
    lookahead: VecDeque<BlockAddr>,
    last_use: u64,
}

/// An idealized temporal-stream predictor over one or more contexts
/// (contexts model the paper's per-trap-level stream separation).
///
/// # Example
///
/// ```
/// use pif_sim::predictor_eval::{TemporalPredictorConfig, TemporalStreamPredictor};
/// use pif_types::BlockAddr;
///
/// let mut p = TemporalStreamPredictor::new(TemporalPredictorConfig::default(), 1);
/// let b = |n| BlockAddr::from_number(n);
/// for n in [1, 2, 3, 4] { p.observe(0, b(n)); }
/// // Stream head 1 recurs: misses on 2, 3, 4 are now predicted.
/// assert!(!p.check_miss(0, b(1)), "head itself is not predicted");
/// assert!(p.check_miss(0, b(2)));
/// assert!(p.check_miss(0, b(3)));
/// ```
#[derive(Debug)]
pub struct TemporalStreamPredictor {
    config: TemporalPredictorConfig,
    contexts: Vec<ContextHistory>,
    streams: Vec<ReplayStream>,
    clock: u64,
    /// Unpredicted misses whose block had no recorded occurrence (cold).
    uncovered_cold: u64,
    /// Unpredicted misses whose block was recorded (stream break).
    uncovered_warm: u64,
}

impl TemporalStreamPredictor {
    /// Creates a predictor with `contexts` separate recording contexts.
    ///
    /// # Panics
    ///
    /// Panics if `contexts` is zero or the window/pool are zero.
    pub fn new(config: TemporalPredictorConfig, contexts: usize) -> Self {
        assert!(contexts > 0 && config.window > 0 && config.pool > 0);
        assert!(config.miss_window > 0, "miss window must be non-zero");
        TemporalStreamPredictor {
            config,
            contexts: (0..contexts)
                .map(|_| ContextHistory::new(config.history_capacity))
                .collect(),
            streams: Vec::new(),
            clock: 0,
            uncovered_cold: 0,
            uncovered_warm: 0,
        }
    }

    /// Unpredicted misses split into (cold, stream-break) counts.
    pub fn uncovered_breakdown(&self) -> (u64, u64) {
        (self.uncovered_cold, self.uncovered_warm)
    }

    /// Records one observation in `context`.
    pub fn observe(&mut self, context: usize, block: BlockAddr) {
        self.contexts[context].observe(block);
    }

    /// Advances any active stream containing `block` (the stream-buffer
    /// behaviour of monitoring *all* fetch requests, §4.3): the window
    /// slides past the match and refills. Returns `true` if a stream
    /// matched. Does **not** open new streams.
    pub fn advance(&mut self, context: usize, block: BlockAddr) -> bool {
        self.clock += 1;
        for si in 0..self.streams.len() {
            if self.streams[si].context != context {
                continue;
            }
            if let Some(i) = self.streams[si].lookahead.iter().position(|&b| b == block) {
                let s = &mut self.streams[si];
                // Keep the matched entry at the front: loops re-match it
                // without consuming the window.
                s.lookahead.drain(..i);
                s.last_use = self.clock;
                let (window, ctx) = (self.config.window, s.context);
                let next = &mut self.streams[si];
                Self::refill(&self.contexts[ctx], next, window + 1);
                return true;
            }
        }
        false
    }

    /// Checks whether a miss on `block` (in `context`) was predicted by an
    /// active stream (advancing it); on a failure the predictor tries to
    /// open a new stream at the block's most recent recorded position.
    /// Returns `true` iff the miss was predicted.
    pub fn check_miss(&mut self, context: usize, block: BlockAddr) -> bool {
        if self.advance(context, block) {
            return true;
        }
        self.try_open(context, block);
        false
    }

    /// Opens a new stream after the most recent recorded occurrence of
    /// `block`, if one exists (called when an unpredicted miss recurs —
    /// the "stream head" event).
    pub fn try_open(&mut self, context: usize, block: BlockAddr) {
        if self.contexts[context].lookup(block).is_none() {
            self.uncovered_cold += 1;
        } else {
            self.uncovered_warm += 1;
        }
        if let Some(pos) = self.contexts[context].lookup(block) {
            let mut stream = ReplayStream {
                context,
                next_pos: pos + 1,
                lookahead: VecDeque::new(),
                last_use: self.clock,
            };
            Self::refill(&self.contexts[context], &mut stream, self.config.window);
            if self.streams.len() < self.config.pool {
                self.streams.push(stream);
            } else if let Some(lru) = self.streams.iter_mut().min_by_key(|s| s.last_use) {
                *lru = stream;
            }
        }
    }

    fn refill(history: &ContextHistory, stream: &mut ReplayStream, window: usize) {
        while stream.lookahead.len() < window && stream.next_pos < history.end() {
            if let Some(b) = history.get(stream.next_pos) {
                stream.lookahead.push_back(b);
            }
            stream.next_pos += 1;
        }
    }
}

/// Coverage of correct-path L1-I misses at each observation point
/// (Figure 2's four bars), plus the denominators.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamCoverageReport {
    /// Coverage when predicting the miss stream.
    pub miss: f64,
    /// Coverage when predicting the access stream.
    pub access: f64,
    /// Coverage when predicting the unified retire stream.
    pub retire: f64,
    /// Coverage when predicting per-trap-level retire streams.
    pub retire_sep: f64,
    /// Number of correct-path L1-I misses measured against.
    pub correct_path_misses: u64,
}

impl StreamCoverageReport {
    /// Coverage for a given observation point.
    pub fn coverage(&self, point: StreamPoint) -> f64 {
        match point {
            StreamPoint::Miss => self.miss,
            StreamPoint::Access => self.access,
            StreamPoint::Retire => self.retire,
            StreamPoint::RetireSep => self.retire_sep,
        }
    }
}

/// Runs the Figure 2 study: simulates the L1-I (no prefetching) over the
/// front-end access stream derived from `trace`, recording temporal
/// streams at all four observation points and measuring how many
/// correct-path misses each would have predicted.
///
/// The paper measures workloads *at steady state* with warmed predictor
/// tables; `evaluate_stream_coverage` treats the first 25% of the trace as
/// warmup (recorded but not measured). Use
/// [`evaluate_stream_coverage_warmup`] to control the warmup length.
pub fn evaluate_stream_coverage(
    config: &EngineConfig,
    predictor_config: TemporalPredictorConfig,
    trace: &[RetiredInstr],
) -> StreamCoverageReport {
    evaluate_stream_coverage_warmup(config, predictor_config, trace, trace.len() / 4)
}

/// As [`evaluate_stream_coverage`], with an explicit warmup prefix (in
/// retired instructions) during which streams are recorded and the cache
/// simulated, but coverage is not measured.
pub fn evaluate_stream_coverage_warmup(
    config: &EngineConfig,
    predictor_config: TemporalPredictorConfig,
    trace: &[RetiredInstr],
    warmup_instrs: usize,
) -> StreamCoverageReport {
    let mut icache = InstructionCache::new(config.icache).expect("valid icache");
    let mut frontend = FrontEnd::new(config.frontend);

    let miss_config = TemporalPredictorConfig {
        window: predictor_config.miss_window,
        ..predictor_config
    };
    let mut miss_pred = TemporalStreamPredictor::new(miss_config, 1);
    let mut access_pred = TemporalStreamPredictor::new(predictor_config, 1);
    let mut retire_pred = TemporalStreamPredictor::new(predictor_config, 1);
    let mut sep_pred = TemporalStreamPredictor::new(predictor_config, TrapLevel::COUNT);

    let mut access_dedup = BlockDedup::new();
    let mut retire_dedup = BlockDedup::new();
    let mut sep_dedups = [BlockDedup::new(), BlockDedup::new()];

    let mut covered = [0u64; 4];
    let mut total_misses = 0u64;

    let mut events: Vec<FrontendEvent> = Vec::with_capacity(64);
    let mut handle = |e: FrontendEvent,
                      counting: bool,
                      icache: &mut InstructionCache,
                      covered: &mut [u64; 4],
                      total_misses: &mut u64| {
        match e {
            FrontendEvent::Fetch(access) => {
                let block = access.pc.block();
                let outcome = icache.demand_access(block);
                let missed = outcome == AccessOutcome::Miss;
                let correct = access.is_correct_path();
                let tl = access.trap_level.index();

                // Stream buffers monitor *every* fetch request (§4.3):
                // advance windows on hits and misses alike. The miss-stream
                // predictor's recorded stream consists of misses, so it
                // advances only on miss events; the access predictor sees
                // wrong-path fetches too; the retire predictors track
                // correct-path fetches.
                let a_miss = missed && miss_pred.advance(0, block);
                let a_access = access_pred.advance(0, block);
                let a_retire = correct && retire_pred.advance(0, block);
                let a_sep = correct && sep_pred.advance(tl, block);

                if missed {
                    // Unpredicted misses are stream-head events: try to
                    // open a replay stream at the recurrence.
                    if !a_miss {
                        miss_pred.try_open(0, block);
                    }
                    if !a_access {
                        access_pred.try_open(0, block);
                    }
                    if correct {
                        if !a_retire {
                            retire_pred.try_open(0, block);
                        }
                        if !a_sep {
                            sep_pred.try_open(tl, block);
                        }
                        if counting {
                            *total_misses += 1;
                            covered[0] += u64::from(a_miss);
                            covered[1] += u64::from(a_access);
                            covered[2] += u64::from(a_retire);
                            covered[3] += u64::from(a_sep);
                        }
                    }
                }

                // Record observations after checking (an event cannot
                // predict itself).
                if missed {
                    miss_pred.observe(0, block);
                }
                if access_dedup.observe(block) {
                    access_pred.observe(0, block);
                }
            }
            FrontendEvent::Retire(instr, _) => {
                let block = instr.pc.block();
                if retire_dedup.observe(block) {
                    retire_pred.observe(0, block);
                }
                let tl = instr.trap_level.index();
                if sep_dedups[tl].observe(block) {
                    sep_pred.observe(tl, block);
                }
            }
        }
    };

    for (i, &instr) in trace.iter().enumerate() {
        let counting = i >= warmup_instrs;
        frontend.step(instr, |e| events.push(e));
        for e in events.drain(..) {
            handle(e, counting, &mut icache, &mut covered, &mut total_misses);
        }
    }
    frontend.flush(|e| events.push(e));
    for e in events.drain(..) {
        handle(e, true, &mut icache, &mut covered, &mut total_misses);
    }

    let denom = total_misses.max(1) as f64;
    StreamCoverageReport {
        miss: covered[0] as f64 / denom,
        access: covered[1] as f64 / denom,
        retire: covered[2] as f64 / denom,
        retire_sep: covered[3] as f64 / denom,
        correct_path_misses: total_misses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pif_types::Address;

    fn b(n: u64) -> BlockAddr {
        BlockAddr::from_number(n)
    }

    #[test]
    fn predictor_replays_recorded_stream() {
        let mut p = TemporalStreamPredictor::new(TemporalPredictorConfig::default(), 1);
        for n in 1..=10 {
            p.observe(0, b(n));
        }
        assert!(!p.check_miss(0, b(1)), "head miss opens the stream");
        for n in 2..=10 {
            assert!(p.check_miss(0, b(n)), "block {n} should be predicted");
        }
    }

    #[test]
    fn predictor_skips_blocks_that_hit() {
        let mut p = TemporalStreamPredictor::new(TemporalPredictorConfig::default(), 1);
        for n in 1..=10 {
            p.observe(0, b(n));
        }
        p.check_miss(0, b(1));
        // Blocks 2..4 hit in the cache; miss at 5 still matches the window.
        assert!(p.check_miss(0, b(5)));
        assert!(p.check_miss(0, b(6)));
    }

    #[test]
    fn unrecorded_block_is_never_predicted() {
        let mut p = TemporalStreamPredictor::new(TemporalPredictorConfig::default(), 1);
        for n in 1..=5 {
            p.observe(0, b(n));
        }
        assert!(!p.check_miss(0, b(42)));
        assert!(!p.check_miss(0, b(42)), "still unrecorded");
    }

    #[test]
    fn consecutive_duplicates_are_collapsed() {
        let mut p = TemporalStreamPredictor::new(TemporalPredictorConfig::default(), 1);
        for n in [1, 1, 1, 2, 2, 3] {
            p.observe(0, b(n));
        }
        p.check_miss(0, b(1));
        assert!(p.check_miss(0, b(2)));
        assert!(p.check_miss(0, b(3)));
    }

    #[test]
    fn contexts_are_isolated() {
        let mut p = TemporalStreamPredictor::new(TemporalPredictorConfig::default(), 2);
        for n in 1..=5 {
            p.observe(0, b(n));
        }
        p.check_miss(1, b(1));
        assert!(
            !p.check_miss(1, b(2)),
            "context 1 never recorded the stream from context 0"
        );
    }

    #[test]
    fn bounded_history_forgets_old_streams() {
        let cfg = TemporalPredictorConfig {
            history_capacity: Some(4),
            ..Default::default()
        };
        let mut p = TemporalStreamPredictor::new(cfg, 1);
        for n in 1..=10 {
            p.observe(0, b(n));
        }
        // Blocks 1..6 have been evicted from the 4-entry history.
        p.check_miss(0, b(1));
        assert!(!p.check_miss(0, b(2)), "evicted stream cannot replay");
        // The recent tail still replays.
        p.check_miss(0, b(7));
        assert!(p.check_miss(0, b(8)));
    }

    #[test]
    fn repeating_sequence_reaches_full_coverage_after_first_pass() {
        let mut p = TemporalStreamPredictor::new(TemporalPredictorConfig::default(), 1);
        let seq: Vec<u64> = (100..132).collect();
        // First pass: record.
        for &n in &seq {
            p.observe(0, b(n));
        }
        // Second pass: all but the head predicted.
        let mut covered = 0;
        for &n in &seq {
            if p.check_miss(0, b(n)) {
                covered += 1;
            }
            p.observe(0, b(n));
        }
        assert_eq!(covered, seq.len() - 1);
    }

    #[test]
    fn coverage_harness_orders_points_correctly() {
        // Build a trace with working set > L1-I so misses recur: repetitive
        // function-like sweeps over 2048 blocks with occasional branches.
        let mut trace = Vec::new();
        for _rep in 0..4 {
            for blk in 0..2048u64 {
                for i in 0..4 {
                    trace.push(RetiredInstr::simple(
                        Address::new(blk * 64 + i * 16),
                        TrapLevel::Tl0,
                    ));
                }
            }
        }
        let report = evaluate_stream_coverage(
            &EngineConfig::paper_default(),
            TemporalPredictorConfig::default(),
            &trace,
        );
        assert!(report.correct_path_misses > 2048);
        // A perfectly sequential repetitive trace is predictable from every
        // observation point once warmed up.
        assert!(report.retire > 0.9, "retire coverage {}", report.retire);
        assert!(report.retire_sep >= report.retire - 0.05);
        assert!(report.access > 0.9);
    }
}
