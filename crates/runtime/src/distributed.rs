//! The distributed LTS-Newmark stepper: one thread per rank, assembly
//! exchanges after every masked product, redundant (consistent) updates of
//! interface DOFs.
//!
//! Mirrors [`lts_core::LtsNewmark`]'s recursion exactly; the integration
//! tests assert agreement with the serial stepper to round-off.
//!
//! Every run has the same three parts:
//! - a `RankWorld` per rank: the operator it applies, its exchange plan,
//!   level metadata, state and sources in one DOF numbering. The
//!   *replicated* constructor here (`RankWorld::replicated`) keeps the
//!   global operator and numbering; the *rank-local* one in
//!   [`crate::local`] cuts a compact sub-operator per rank.
//! - one rank context (`RankCtx::new`) that steps a world, and one driver
//!   (`run_worlds`) that spawns the ranks, joins them, and owns the fault
//!   plan, the stall monitor, the shared recorder epoch and the λ stamp.
//! - one lowest-owner `assemble` of the global fields.
//!
//! Ranks speak to each other only through the pluggable
//! [`crate::transport::Transport`] trait, so the same stepper runs over
//! in-process channels, bounded shared-memory rings, or Unix-socket frames
//! (and, wrapped in a [`crate::transport::faulty::FaultyTransport`], under
//! injected faults). Every force evaluation applies boundary elements first
//! and interior elements second *in both communication modes*: interface
//! partials depend only on boundary elements, so the payload bytes — and,
//! because the per-DOF summation order never changes, the final fields —
//! are bitwise identical whether `overlap` posts the sends between the two
//! applies or after them.

use crate::error::RuntimeError;

/// What a distributed run returns: final `(u, v)` and per-rank stats, or
/// the first rank failure.
pub type RunResult = Result<(Vec<f64>, Vec<f64>, Vec<RankStats>), RuntimeError>;
use crate::exchange::{build_plans, RankPlan};
use crate::monitor::{MonitorConfig, RankMonitor, StallMonitor};
use crate::stats::{names, RankStats, TimelineEvent};
use crate::transport::faulty::{self, FaultPlan};
use crate::transport::{self, Recv, Transport, TransportError, TransportKind};
use lts_core::{DofTopology, LtsSetup, Operator, Source, Workspace};
use lts_obs::{EventKind, FlightRecorder, MetricsRegistry, RankRecording, NO_LEVEL, NO_PEER};
use lts_sem::pool::{for_each_listed, WorkerPool};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Upper bound on one blocking receive inside the exchange loop. A healthy
/// peer answers in microseconds; a minute of silence means the peer (or its
/// link) is gone, and the step must fail as [`RuntimeError::ExchangeTimeout`]
/// instead of hanging the whole cluster on a lost rank.
const EXCHANGE_WATCHDOG: Duration = Duration::from_secs(60);

/// Runtime configuration.
#[derive(Debug, Clone, Copy)]
pub struct DistributedConfig {
    pub n_ranks: usize,
    /// Record a fine-grained per-exchange timeline (Fig. 1).
    pub record_timeline: bool,
    /// Artificial extra work per element-operation (spin iterations) — makes
    /// load imbalance visible on problems too small to measure otherwise.
    pub work_amplify: u32,
    /// Restrict `work_amplify` to one rank: deterministic skew for stall
    /// experiments. `None` amplifies every rank.
    pub amplify_rank: Option<usize>,
    /// Overlap communication with computation (the SPECFEM3D pattern the
    /// paper uses): compute boundary-element contributions, post the sends,
    /// compute interior elements while messages fly, then assemble.
    pub overlap: bool,
    /// Run the online stall/imbalance monitor (see [`crate::monitor`]).
    pub stall_monitor: Option<MonitorConfig>,
    /// Intra-rank worker threads for the masked products (1 = serial). The
    /// coloured scatter keeps results bitwise identical to serial at any
    /// value, so counters and fields are unaffected.
    pub threads_per_rank: usize,
    /// Which halo-exchange backend the in-process entry points build.
    pub transport: TransportKind,
    /// Flight-recorder ring capacity per rank, in events. `0` disables
    /// recording (seeded from the `LTS_FLIGHT` env var, default
    /// [`FlightRecorder::DEFAULT_CAPACITY`]). The recorder is proven
    /// bitwise-neutral: fields and deterministic counters are identical
    /// with it on or off.
    pub flight_capacity: usize,
    /// Inject a transport fault on one rank: the in-process entry points
    /// wrap that rank's endpoint in a
    /// [`crate::transport::faulty::FaultyTransport`] with the given plan.
    pub fault: Option<(usize, FaultPlan)>,
}

/// `LTS_FLIGHT` env override for the flight-recorder ring capacity: `0`
/// disables it, any other integer sets the per-rank capacity in events.
/// Unset or unparsable → the default.
pub fn flight_capacity_from_env() -> usize {
    match std::env::var("LTS_FLIGHT") {
        Ok(v) => v.trim().parse().unwrap_or(FlightRecorder::DEFAULT_CAPACITY),
        Err(_) => FlightRecorder::DEFAULT_CAPACITY,
    }
}

impl DistributedConfig {
    pub fn new(n_ranks: usize) -> Self {
        DistributedConfig {
            n_ranks,
            record_timeline: false,
            work_amplify: 0,
            amplify_rank: None,
            overlap: false,
            stall_monitor: None,
            threads_per_rank: 1,
            transport: TransportKind::Channel,
            flight_capacity: flight_capacity_from_env(),
            fault: None,
        }
    }
}

/// One rank's outcome: final `(u, v)` in its world's numbering, and its
/// statistics.
pub type RankRun = Result<(Vec<f64>, Vec<f64>, RankStats), RuntimeError>;

/// One rank's world: the operator it applies, its exchange plan, level
/// metadata, initial state and sources, all in one DOF numbering.
pub(crate) struct RankWorld<'a, O> {
    pub(crate) op: &'a O,
    pub(crate) plan: RankPlan,
    /// LTS level of each DOF.
    pub(crate) dof_level: Vec<u8>,
    /// Initial state; the run moves it into the rank's stepper.
    pub(crate) u: Vec<f64>,
    pub(crate) v: Vec<f64>,
    /// Per leaf level: (index into the run's sources, DOF in this numbering).
    pub(crate) sources: Vec<Vec<(usize, u32)>>,
    /// Global DOF of each DOF in this numbering (final assembly).
    pub(crate) global_of_local: Vec<u32>,
}

impl<'a, O: Operator> RankWorld<'a, O> {
    /// Rank `plan`'s world on the shared global operator: global numbering,
    /// full-length state, identity DOF map.
    pub(crate) fn replicated(
        op: &'a O,
        setup: &LtsSetup,
        plan: RankPlan,
        u0: &[f64],
        v0: &[f64],
        sources: &[Source],
    ) -> Self {
        let sources = level_sources(setup, sources, |d| {
            plan.my_dofs.binary_search(&d).ok().map(|_| d)
        });
        RankWorld {
            op,
            plan,
            dof_level: setup.dof_level.clone(),
            u: u0.to_vec(),
            v: v0.to_vec(),
            sources,
            global_of_local: (0..u0.len() as u32).collect(),
        }
    }

    pub(crate) fn n_levels(&self) -> usize {
        self.plan.peers.len()
    }
}

/// Bucket `sources` by leaf level as `(source index, local DOF)`, keeping
/// those whose global DOF `local_of` finds in this rank's numbering.
pub(crate) fn level_sources(
    setup: &LtsSetup,
    sources: &[Source],
    local_of: impl Fn(u32) -> Option<u32>,
) -> Vec<Vec<(usize, u32)>> {
    let mut per_level = vec![Vec::new(); setup.n_levels];
    for (si, src) in sources.iter().enumerate() {
        if let Some(d) = local_of(src.dof) {
            per_level[setup.leaf_level[src.dof as usize] as usize].push((si, d));
        }
    }
    per_level
}

struct RankCtx<'a, O: Operator> {
    rank: usize,
    op: &'a O,
    n_levels: usize,
    dof_level: &'a [u8],
    plan: &'a RankPlan,
    sources: &'a [Source],
    /// per leaf level: (index into `sources`, DOF in this rank's numbering)
    my_sources: &'a [Vec<(usize, u32)>],
    dt: f64,
    u: Vec<f64>,
    v: Vec<f64>,
    uts: Vec<Vec<f64>>,
    vts: Vec<Vec<f64>>,
    fs: Vec<Vec<f64>>,
    /// This rank's endpoint of the halo-exchange fabric.
    transport: Box<dyn Transport>,
    /// Peers whose goodbye has been observed.
    gone: Vec<bool>,
    /// Messages that arrived while awaiting a different peer: `(level tag,
    /// send seq, payload)`, per sender, consumed FIFO.
    inbox: Vec<VecDeque<(u8, u64, Vec<f64>)>>,
    /// Next per-directed-edge send sequence number, per peer. Monotone for
    /// the life of the rank — the happens-before substrate of the flight
    /// recorder's causal merge.
    send_seq: Vec<u64>,
    /// The always-on (unless capacity 0) event ring; allocation-free.
    flight: FlightRecorder,
    /// Reused payload staging for sends (the hot path never allocates).
    send_buf: Vec<f64>,
    /// Reused per-exchange receive slots, assembly cursors, buffer pool.
    pending: Vec<Option<Vec<f64>>>,
    cursors: Vec<usize>,
    pool: Vec<Vec<f64>>,
    /// Per-rank metrics; merged into [`RankStats`] views after the join.
    reg: MetricsRegistry,
    timeline: Vec<TimelineEvent>,
    monitor: Option<RankMonitor>,
    cfg: DistributedConfig,
    /// Operator scratch + compiled gather lists, reused across all steps.
    ws: Workspace,
    /// The rank's worker pool (`threads_per_rank − 1` workers), shared with
    /// the operator through `ws`; `None` at one thread per rank.
    workers: Option<Arc<WorkerPool>>,
    step_idx: u32,
    busy_since: Instant,
}

/// Map a transport send failure onto the runtime error for `(rank, peer, l)`.
#[cold]
fn send_error(rank: usize, peer: usize, level: usize, e: TransportError) -> RuntimeError {
    match e {
        TransportError::Disconnected { .. } | TransportError::Closed => {
            RuntimeError::PeerDisconnected { rank, peer, level }
        }
        TransportError::Timeout => RuntimeError::ExchangeTimeout { rank, level },
        TransportError::Injected => RuntimeError::FaultInjected { rank, level },
        e => RuntimeError::TransportIo {
            rank,
            level,
            detail: e.to_string(),
        },
    }
}

/// Map a transport receive failure onto the runtime error for `(rank, l)`.
#[cold]
fn recv_error(rank: usize, level: usize, e: TransportError) -> RuntimeError {
    match e {
        TransportError::Disconnected { peer } => {
            RuntimeError::PeerDisconnected { rank, peer, level }
        }
        TransportError::Closed => RuntimeError::ChannelClosed { rank, level },
        TransportError::Timeout => RuntimeError::ExchangeTimeout { rank, level },
        TransportError::Injected => RuntimeError::FaultInjected { rank, level },
        e => RuntimeError::TransportIo {
            rank,
            level,
            detail: e.to_string(),
        },
    }
}

/// `(level, peer)` context of a failure, stamped into the flight recorder's
/// terminal `fault` event.
#[cold]
fn fault_context(e: &RuntimeError) -> (u8, u32) {
    match e {
        RuntimeError::PeerDisconnected { peer, level, .. }
        | RuntimeError::NotAPeer { peer, level, .. }
        | RuntimeError::BadPayload { peer, level, .. } => (*level as u8, *peer as u32),
        RuntimeError::ChannelClosed { level, .. }
        | RuntimeError::ExchangeTimeout { level, .. }
        | RuntimeError::FaultInjected { level, .. }
        | RuntimeError::TransportIo { level, .. } => (*level as u8, NO_PEER),
        RuntimeError::RankPanicked { .. } | RuntimeError::MissingRank { .. } => (NO_LEVEL, NO_PEER),
    }
}

#[cold]
fn peer_gone(rank: usize, peer: usize, level: usize) -> RuntimeError {
    RuntimeError::PeerDisconnected { rank, peer, level }
}

#[cold]
fn bad_payload(rank: usize, peer: usize, level: usize) -> RuntimeError {
    RuntimeError::BadPayload { rank, peer, level }
}

#[cold]
fn not_a_peer(rank: usize, peer: usize, level: usize) -> RuntimeError {
    RuntimeError::NotAPeer { rank, peer, level }
}

impl<'a, O: Operator> RankCtx<'a, O> {
    /// Step `world` as `rank`: its state moves into the context, the rest
    /// is borrowed for the run.
    #[allow(clippy::too_many_arguments)]
    fn new(
        rank: usize,
        world: &'a mut RankWorld<'_, O>,
        transport: Box<dyn Transport>,
        cfg: DistributedConfig,
        sources: &'a [Source],
        dt: f64,
        flight: FlightRecorder,
        monitor: Option<RankMonitor>,
    ) -> Self {
        let n_ranks = transport.n_ranks();
        let n_levels = world.n_levels();
        let ndof = world.u.len();
        RankCtx {
            rank,
            op: world.op,
            n_levels,
            dof_level: &world.dof_level,
            plan: &world.plan,
            sources,
            my_sources: &world.sources,
            dt,
            u: std::mem::take(&mut world.u),
            v: std::mem::take(&mut world.v),
            uts: vec![vec![0.0; ndof]; n_levels],
            vts: vec![vec![0.0; ndof]; n_levels],
            fs: vec![vec![0.0; ndof]; n_levels],
            transport,
            gone: vec![false; n_ranks],
            inbox: vec![VecDeque::new(); n_ranks],
            send_seq: vec![0; n_ranks],
            flight,
            send_buf: Vec::new(),
            pending: Vec::new(),
            cursors: Vec::new(),
            pool: Vec::new(),
            reg: MetricsRegistry::new(),
            timeline: Vec::new(),
            monitor,
            cfg,
            ws: Workspace::new(),
            workers: None,
            step_idx: 0,
            busy_since: Instant::now(),
        }
    }

    fn amplify(&self, n_elems: usize) {
        if self.cfg.work_amplify > 0 && self.cfg.amplify_rank.is_none_or(|r| r == self.rank) {
            let iters = self.cfg.work_amplify as u64 * n_elems as u64;
            let mut x = 0u64;
            for i in 0..iters {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            std::hint::black_box(x);
        }
    }

    /// Warm every compiled gather entry the run will touch, before the timed
    /// loop: with comm/compute overlap the first send would otherwise be
    /// delayed by the boundary list's one-time compile. Then spawn the
    /// rank's worker pool, once for the whole run.
    fn precompile(&mut self) {
        for l in 0..self.n_levels {
            for elems in [
                &self.plan.my_boundary_elems[l],
                &self.plan.my_interior_elems[l],
            ] {
                if !elems.is_empty() {
                    self.op
                        .precompile_masked(elems, self.dof_level, l as u8, &mut self.ws);
                }
            }
        }
        self.workers = WorkerPool::shared(&mut self.ws, self.cfg.threads_per_rank);
    }

    /// Apply the masked product over this rank's elements, amplify work,
    /// then assemble totals on shared DOFs.
    ///
    /// Boundary elements are applied first in *both* modes (interface
    /// partials are then complete, since interior elements by definition
    /// touch no shared DOF); `overlap` only decides whether the sends are
    /// posted between the two applies (SPECFEM3D-style, messages fly while
    /// interior elements compute) or after them. The per-DOF summation
    /// order — and therefore every field bit — is identical either way.
    fn force_level(&mut self, l: usize, state_is_u: bool) -> Result<(), RuntimeError> {
        self.flight
            .record(EventKind::LevelBegin, l as u8, self.step_idx, NO_PEER, 0);
        // zero my entries
        for_each_listed(
            self.workers.as_deref(),
            &self.plan.my_zero[l],
            &mut self.fs[l],
            |_, f| *f = 0.0,
        );
        let has_peers = !self.plan.peers[l].is_empty();
        if !self.plan.my_boundary_elems[l].is_empty() {
            let state = if state_is_u { &self.u } else { &self.uts[l] };
            self.op.apply_masked_threads(
                state,
                &mut self.fs[l],
                &self.plan.my_boundary_elems[l],
                self.dof_level,
                l as u8,
                &mut self.ws,
                self.cfg.threads_per_rank,
            );
        }
        self.amplify(self.plan.my_boundary_elems[l].len());
        if has_peers && self.cfg.overlap {
            self.send_partials(l)?;
        }
        if !self.plan.my_interior_elems[l].is_empty() {
            let state = if state_is_u { &self.u } else { &self.uts[l] };
            self.op.apply_masked_threads(
                state,
                &mut self.fs[l],
                &self.plan.my_interior_elems[l],
                self.dof_level,
                l as u8,
                &mut self.ws,
                self.cfg.threads_per_rank,
            );
        }
        self.amplify(self.plan.my_interior_elems[l].len());
        self.reg
            .inc_level(names::ELEM_OPS, l as u8, self.plan.my_elems[l].len() as u64);
        if has_peers {
            if !self.cfg.overlap {
                self.send_partials(l)?;
            }
            self.recv_and_assemble(l)?;
        }
        self.flight
            .record(EventKind::LevelEnd, l as u8, self.step_idx, NO_PEER, 0);
        Ok(())
    }

    /// Post this rank's interface partials to every level-`l` peer. Stages
    /// each payload in the reused `send_buf`; allocation-free steady state
    /// (enforced via `lint/hotpaths.toml`).
    fn send_partials(&mut self, l: usize) -> Result<(), RuntimeError> {
        let mut dofs_sent = 0u64;
        for pi in 0..self.plan.peers[l].len() {
            let peer = self.plan.peers[l][pi];
            if self.gone[peer] {
                return Err(peer_gone(self.rank, peer, l));
            }
            self.send_buf.clear();
            for &d in &self.plan.pair_dofs[l][pi] {
                self.send_buf.push(self.fs[l][d as usize]);
            }
            dofs_sent += self.send_buf.len() as u64;
            let seq = self.send_seq[peer];
            if let Err(e) = self.transport.send(peer, l as u8, seq, &self.send_buf) {
                return Err(send_error(self.rank, peer, l, e));
            }
            self.send_seq[peer] = seq + 1;
            self.flight
                .record(EventKind::Send, l as u8, self.step_idx, peer as u32, seq);
        }
        if let Err(e) = self.transport.flush() {
            return Err(recv_error(self.rank, l, e));
        }
        self.reg
            .inc_level(names::MSGS_SENT, l as u8, self.plan.peers[l].len() as u64);
        self.reg.inc_level(names::DOFS_SENT, l as u8, dofs_sent);
        Ok(())
    }

    /// Await one payload per level-`l` peer, then assemble shared-DOF totals
    /// in ascending-rank order for bitwise cross-rank consistency. A peer's
    /// goodbye while its payload is still awaited surfaces as
    /// [`RuntimeError::PeerDisconnected`]; payload lengths are validated
    /// against the exchange plan before any indexing. Buffers recycle
    /// through `pool`; allocation-free steady state (see
    /// `lint/hotpaths.toml`).
    fn recv_and_assemble(&mut self, l: usize) -> Result<(), RuntimeError> {
        let busy_s = self.busy_since.elapsed().as_secs_f64();
        self.reg.observe(names::BUSY, Some(l as u8), busy_s);
        self.flight
            .record(EventKind::ExchangeBegin, l as u8, self.step_idx, NO_PEER, 0);
        let wait_start = Instant::now();
        let np = self.plan.peers[l].len();
        // opportunistic drain: claim everything the transport has already
        // delivered before deciding what to block on. Best-effort — a
        // backend that cannot poll returns None and loses nothing (its
        // partials arrive through the blocking loop below); real errors
        // also resurface there, on the path that can classify them.
        loop {
            let mut buf = self.pool.pop().unwrap_or_default();
            match self.transport.try_recv_into(&mut buf) {
                Ok(Some(Recv::Msg { from, level, seq })) => {
                    if from >= self.inbox.len() {
                        return Err(not_a_peer(self.rank, from, l));
                    }
                    self.flight
                        .record(EventKind::Recv, level, self.step_idx, from as u32, seq);
                    self.inbox[from].push_back((level, seq, buf));
                }
                Ok(Some(Recv::Goodbye { from })) => {
                    self.pool.push(buf);
                    if from < self.gone.len() {
                        self.gone[from] = true;
                    }
                }
                Ok(None) | Err(_) => {
                    self.pool.push(buf);
                    break;
                }
            }
        }
        self.pending.clear();
        self.pending.resize_with(np, || None);
        let mut missing = np;
        let mut ready = 0u64;
        for pi in 0..np {
            let peer = self.plan.peers[l][pi];
            if let Some((tag, _seq, m)) = self.inbox[peer].pop_front() {
                if tag as usize != l {
                    return Err(bad_payload(self.rank, peer, l));
                }
                self.pending[pi] = Some(m);
                missing -= 1;
                ready += 1;
            } else if self.gone[peer] {
                // nothing stashed and the peer is dead: its payload for this
                // exchange can never arrive
                return Err(peer_gone(self.rank, peer, l));
            }
        }
        while missing > 0 {
            let mut buf = self.pool.pop().unwrap_or_default();
            match self
                .transport
                .recv_into_timeout(&mut buf, Some(EXCHANGE_WATCHDOG))
            {
                Ok(Recv::Msg { from, level, seq }) => {
                    self.flight
                        .record(EventKind::Recv, level, self.step_idx, from as u32, seq);
                    let slot = self.plan.peers[l].iter().position(|&p| p == from);
                    match slot {
                        Some(pi) if self.pending[pi].is_none() => {
                            if level as usize != l {
                                return Err(bad_payload(self.rank, from, l));
                            }
                            self.pending[pi] = Some(buf);
                            missing -= 1;
                        }
                        _ => {
                            if from >= self.inbox.len() {
                                return Err(not_a_peer(self.rank, from, l));
                            }
                            self.inbox[from].push_back((level, seq, buf));
                        }
                    }
                }
                Ok(Recv::Goodbye { from }) => {
                    self.pool.push(buf);
                    if from < self.gone.len() {
                        self.gone[from] = true;
                    }
                    let awaited = self.plan.peers[l]
                        .iter()
                        .position(|&p| p == from)
                        .is_some_and(|pi| self.pending[pi].is_none());
                    if awaited {
                        return Err(peer_gone(self.rank, from, l));
                    }
                }
                Err(e) => {
                    self.pool.push(buf);
                    return Err(recv_error(self.rank, l, e));
                }
            }
        }
        // validate payload lengths against the plan before any indexing
        for pi in 0..np {
            let ok = match self.pending[pi].as_ref() {
                Some(m) => m.len() == self.plan.pair_dofs[l][pi].len(),
                None => false,
            };
            if !ok {
                return Err(bad_payload(self.rank, self.plan.peers[l][pi], l));
            }
        }
        let wait_s = wait_start.elapsed().as_secs_f64();
        self.flight
            .record(EventKind::ExchangeEnd, l as u8, self.step_idx, NO_PEER, 0);
        self.reg.observe(names::WAIT, Some(l as u8), wait_s);
        self.reg.inc_level(names::EXCHANGES, l as u8, 1);
        if ready > 0 {
            self.reg.inc_level(names::EXCHANGE_READY, l as u8, ready);
        }
        if let Some(m) = self.monitor.as_mut() {
            if m.on_exchange(&mut self.reg, l as u8, busy_s, wait_s) {
                self.flight
                    .record(EventKind::StallWarning, l as u8, self.step_idx, NO_PEER, 0);
            }
        }
        if self.cfg.record_timeline {
            self.timeline.push(TimelineEvent {
                level: l as u8,
                step: self.step_idx,
                busy_s,
                wait_s,
                elem_ops: self.reg.counter_total(names::ELEM_OPS),
                dofs_sent: self.reg.counter_total(names::DOFS_SENT),
            });
        }
        // assemble in ascending-rank order for bitwise consistency
        self.cursors.clear();
        self.cursors.resize(np, 0);
        let rank = self.rank;
        let plan = self.plan;
        let fs_l = &mut self.fs[l];
        for (d, ranks) in &plan.shared[l] {
            let mut total = 0.0;
            for &r in ranks {
                if r as usize == rank {
                    total += fs_l[*d as usize];
                } else {
                    let pi = match plan.peers[l].iter().position(|&p| p == r as usize) {
                        Some(pi) => pi,
                        None => return Err(not_a_peer(rank, r as usize, l)),
                    };
                    match self.pending[pi].as_ref() {
                        Some(m) => {
                            total += m[self.cursors[pi]];
                            self.cursors[pi] += 1;
                        }
                        None => return Err(not_a_peer(rank, r as usize, l)),
                    }
                }
            }
            fs_l[*d as usize] = total;
        }
        // recycle the payload buffers for the next exchange
        while let Some(p) = self.pending.pop() {
            if let Some(b) = p {
                self.pool.push(b);
            }
        }
        self.busy_since = Instant::now();
        Ok(())
    }

    /// Inject `Δ·F(t)/M` for this rank's sources at `level` into `target`
    /// (`vts[level]` or the global `v`). Serial: a handful of DOFs.
    fn inject(&mut self, level: usize, to_v: bool, dt: f64, t: f64, half: f64) {
        let target = if to_v {
            &mut self.v
        } else {
            &mut self.vts[level]
        };
        let mass = self.op.mass();
        for &(si, dof) in &self.my_sources[level] {
            let src = &self.sources[si];
            let d = dof as usize;
            target[d] += half * dt * (src.amplitude)(t) / mass[d];
        }
    }

    /// Advance level `l`'s auxiliary state over `[t0, t0 + Δt_{l−1})` in two
    /// leap-frog sub-steps, recursing into level `l + 1` first. The vector
    /// updates split each sorted DOF list across the rank's pool; every
    /// DOF's arithmetic is the serial loop's, so every bit is too.
    fn aux_advance(&mut self, l: usize, t0: f64) -> Result<(), RuntimeError> {
        let dt_l = self.dt / (1u64 << l) as f64;
        let innermost = l == self.n_levels - 1;
        let plan = self.plan;
        let workers = self.workers.as_ref().map(Arc::clone);
        let pool = workers.as_deref();
        for m in 0..2usize {
            let tm = t0 + m as f64 * dt_l;
            self.force_level(l, false)?;
            if !innermost {
                let (cur, fine) = self.uts.split_at_mut(l + 1);
                let src = &cur[l];
                for_each_listed(pool, &plan.my_active[l + 1], &mut fine[0], |i, u| {
                    *u = src[i]
                });
                self.aux_advance(l + 1, tm)?;
            }
            // the innermost level owns every active DOF; coarser levels
            // kick their leaves and take the rest from the finer level
            let kicked = if innermost {
                &plan.my_active[l]
            } else {
                &plan.my_leaf[l]
            };
            let fs = &self.fs[..=l];
            for_each_listed(pool, kicked, &mut self.vts[l], |i, v| {
                let mut f = 0.0;
                for fj in fs {
                    f += fj[i];
                }
                if m == 0 {
                    *v = -0.5 * dt_l * f;
                } else {
                    *v -= dt_l * f;
                }
            });
            self.inject(l, false, dt_l, tm, if m == 0 { 0.5 } else { 1.0 });
            if !innermost {
                let (cur, fine) = (&self.uts[l], &self.uts[l + 1]);
                for_each_listed(pool, &plan.my_active[l + 1], &mut self.vts[l], |i, v| {
                    let d = (fine[i] - cur[i]) / dt_l;
                    if m == 0 {
                        *v = d;
                    } else {
                        *v += 2.0 * d;
                    }
                });
            }
            let vts = &self.vts[l];
            for_each_listed(pool, &plan.my_active[l], &mut self.uts[l], |i, u| {
                *u += dt_l * vts[i]
            });
        }
        Ok(())
    }

    fn step(&mut self, t: f64) -> Result<(), RuntimeError> {
        self.flight
            .record(EventKind::StepBegin, NO_LEVEL, self.step_idx, NO_PEER, 0);
        let dt = self.dt;
        let plan = self.plan;
        let workers = self.workers.as_ref().map(Arc::clone);
        let pool = workers.as_deref();
        self.force_level(0, true)?;
        let kicked = if self.n_levels == 1 {
            &plan.my_dofs
        } else {
            let u = &self.u;
            for_each_listed(pool, &plan.my_active[1], &mut self.uts[1], |i, x| *x = u[i]);
            self.aux_advance(1, t)?;
            let (uts, u) = (&self.uts[1], &self.u);
            for_each_listed(pool, &plan.my_active[1], &mut self.v, |i, v| {
                *v += 2.0 * (uts[i] - u[i]) / dt
            });
            &plan.my_leaf[0]
        };
        let f0 = &self.fs[0];
        for_each_listed(pool, kicked, &mut self.v, |i, v| *v -= dt * f0[i]);
        self.inject(0, true, dt, t, 1.0);
        let v = &self.v;
        for_each_listed(pool, &plan.my_dofs, &mut self.u, |i, u| *u += dt * v[i]);
        self.flight
            .record(EventKind::StepEnd, NO_LEVEL, self.step_idx, NO_PEER, 0);
        self.step_idx += 1;
        Ok(())
    }
}

/// Drive one rank's context for `n_steps`, then stamp its transport metrics
/// (labelled by backend) and close the endpoint so peers observe a clean
/// goodbye. On error the context drops, which closes the endpoint too —
/// that drop is what propagates the failure cascade.
fn run_rank_loop<O: Operator>(mut ctx: RankCtx<'_, O>, n_steps: usize) -> (RankRun, RankRecording) {
    ctx.precompile();
    ctx.busy_since = Instant::now();
    let dt = ctx.dt;
    for step in 0..n_steps {
        if let Err(e) = ctx.step(step as f64 * dt) {
            // terminal fault event, then freeze the ring for the post-mortem
            let (level, peer) = fault_context(&e);
            ctx.flight
                .record(EventKind::Fault, level, ctx.step_idx, peer, 0);
            let rec = ctx.flight.snapshot(ctx.rank as u32);
            return (Err(e), rec);
        }
    }
    // busy tail after the last exchange, recorded level-less
    ctx.reg
        .observe(names::BUSY, None, ctx.busy_since.elapsed().as_secs_f64());
    if let Some(mut m) = ctx.monitor.take() {
        m.flush_window(&mut ctx.reg);
    }
    let backend = ctx.transport.backend();
    let tm = ctx.transport.metrics();
    ctx.reg
        .set_gauge_labeled(names::TRANSPORT_SEND_BLOCK_S, backend, tm.send_block_s);
    ctx.reg
        .set_gauge_labeled(names::TRANSPORT_MSGS, backend, tm.msgs_sent as f64);
    ctx.reg
        .set_gauge_labeled(names::TRANSPORT_BYTES, backend, tm.bytes_sent as f64);
    ctx.transport.close();
    let rank = ctx.rank;
    let rec = ctx.flight.snapshot(rank as u32);
    (
        Ok((
            ctx.u,
            ctx.v,
            RankStats::from_registry(rank, ctx.reg, ctx.timeline),
        )),
        rec,
    )
}

/// Apply `cfg.fault` to a freshly built (or caller-provided) set of
/// endpoints: the configured rank's endpoint gets the faulty wrapper.
fn apply_fault_plan(
    endpoints: Vec<Box<dyn Transport>>,
    fault: Option<(usize, FaultPlan)>,
) -> Vec<Box<dyn Transport>> {
    endpoints
        .into_iter()
        .enumerate()
        .map(|(r, ep)| match fault {
            Some((fr, plan)) if fr == r => faulty::wrap(ep, plan),
            _ => ep,
        })
        .collect()
}

/// Stamp the monitor's final per-level Eq. 21 λ (and its run-long watermark)
/// into the given registries as gauges. Runs after the join, when all busy
/// totals are complete, so [`names::STALL_LAMBDA`] agrees with the post-hoc
/// [`crate::stats::lambda_from_stats`].
fn stamp_lambda_gauges<'r>(
    monitor: Option<&StallMonitor>,
    regs: impl Iterator<Item = &'r mut MetricsRegistry>,
) {
    let Some(mon) = monitor else { return };
    let lam = mon.update_lambda_watermarks();
    let wm = mon.lambda_watermarks();
    for reg in regs {
        for l in 0..lam.len() {
            reg.set_gauge_level(names::STALL_LAMBDA, l as u8, lam[l]);
            reg.set_gauge_level(names::STALL_LAMBDA_WM, l as u8, wm[l]);
        }
    }
}

/// Run every world on its own thread over `endpoints` (one per rank, in rank
/// order) for `n_steps`, then join them all. Returns **each rank's own
/// outcome** plus its flight recording, on failure too — the recordings are
/// the crash-report material, and the fault-injection tests assert that
/// killing one rank yields an error on *every* rank. The only place that
/// applies `cfg.fault`, builds the stall monitor, takes the rank group's
/// shared recorder epoch and stamps the final λ gauges.
pub(crate) fn run_worlds<O: Operator + Sync>(
    worlds: &mut [RankWorld<'_, O>],
    endpoints: Vec<Box<dyn Transport>>,
    dt: f64,
    n_steps: usize,
    cfg: &DistributedConfig,
    sources: &[Source],
) -> (Vec<RankRun>, Vec<RankRecording>) {
    let endpoints = apply_fault_plan(endpoints, cfg.fault);
    let n_levels = worlds.first().map_or(1, |w| w.n_levels());
    let monitor = cfg
        .stall_monitor
        .map(|mc| StallMonitor::new(mc, worlds.len(), n_levels));
    // one epoch across the rank group, so the recordings share a time axis
    let epoch = Instant::now();
    let (mut outcomes, recordings): (Vec<RankRun>, Vec<RankRecording>) =
        std::thread::scope(|scope| {
            let handles: Vec<_> = worlds
                .iter_mut()
                .zip(endpoints)
                .enumerate()
                .map(|(rank, (world, transport))| {
                    let mon = monitor.clone();
                    scope.spawn(move || {
                        let ctx = RankCtx::new(
                            rank,
                            world,
                            transport,
                            *cfg,
                            sources,
                            dt,
                            FlightRecorder::with_epoch(cfg.flight_capacity, epoch),
                            mon.map(|s| RankMonitor::new(s, rank)),
                        );
                        run_rank_loop(ctx, n_steps)
                    })
                })
                .collect();
            // join everyone before propagating: a failed rank's endpoint
            // closes, which unblocks any peer still waiting in recv
            // (goodbye cascade)
            handles
                .into_iter()
                .enumerate()
                .map(|(rank, h)| {
                    h.join().unwrap_or_else(|_| {
                        let rec = RankRecording {
                            rank: rank as u32,
                            dropped: 0,
                            events: Vec::new(),
                        };
                        (Err(RuntimeError::RankPanicked { rank }), rec)
                    })
                })
                .unzip()
        });
    stamp_lambda_gauges(
        monitor.as_deref(),
        outcomes
            .iter_mut()
            .filter_map(|o| o.as_mut().ok().map(|(_, _, st)| &mut st.registry)),
    );
    (outcomes, recordings)
}

/// The global `(u, v)` and per-rank stats of a finished run: the lowest
/// failed rank's error if any rank failed (ID order — deterministic across
/// runs), else every DOF taken from the lowest rank holding it.
pub(crate) fn assemble<O>(
    ndof: usize,
    worlds: &[RankWorld<'_, O>],
    outcomes: Vec<RankRun>,
) -> RunResult {
    let finals = outcomes.into_iter().collect::<Result<Vec<_>, _>>()?;
    let (u, v) = lowest_owner_fields(
        ndof,
        worlds.iter().zip(&finals).map(|(w, (u, v, _))| {
            let held = w
                .plan
                .my_dofs
                .iter()
                .map(|&d| (d as usize, w.global_of_local[d as usize] as usize));
            (u.as_slice(), v.as_slice(), held)
        }),
    );
    Ok((u, v, finals.into_iter().map(|(_, _, st)| st).collect()))
}

/// Global `(u, v)` from per-rank `(u, v, held)`, where `held` pairs an index
/// into that rank's state with the global DOF it holds. A DOF held by
/// several ranks takes the lowest rank's value.
pub(crate) fn lowest_owner_fields<'r, I: Iterator<Item = (usize, usize)>>(
    ndof: usize,
    ranks: impl DoubleEndedIterator<Item = (&'r [f64], &'r [f64], I)>,
) -> (Vec<f64>, Vec<f64>) {
    let mut u = vec![0.0; ndof];
    let mut v = vec![0.0; ndof];
    // highest rank first, so the lowest rank's write lands last
    for (ur, vr, held) in ranks.rev() {
        for (l, g) in held {
            u[g] = ur[l];
            v[g] = vr[l];
        }
    }
    (u, v)
}

/// Replicated worlds of every rank of `partition` over `n_ranks` ranks.
fn replicated_worlds<'a, O: Operator + DofTopology>(
    op: &'a O,
    setup: &LtsSetup,
    partition: &[u32],
    n_ranks: usize,
    u0: &[f64],
    v0: &[f64],
    sources: &[Source],
) -> Vec<RankWorld<'a, O>> {
    assert_eq!(u0.len(), Operator::ndof(op));
    build_plans(op, setup, partition, n_ranks)
        .into_iter()
        .map(|plan| RankWorld::replicated(op, setup, plan, u0, v0, sources))
        .collect()
}

/// Run `n_steps` of distributed LTS-Newmark over `partition`, every rank
/// holding the global operator and state, with external point sources
/// (every rank owning a source's DOF injects it identically, so interface
/// DOFs stay consistent). Returns the assembled global `(u, v)` and
/// per-rank statistics; fails cleanly (no deadlock, no panic) if any rank
/// drops out mid-run.
#[allow(clippy::too_many_arguments)]
pub fn run_distributed<O: Operator + DofTopology + Sync>(
    op: &O,
    setup: &LtsSetup,
    partition: &[u32],
    dt: f64,
    u0: &[f64],
    v0: &[f64],
    n_steps: usize,
    cfg: &DistributedConfig,
    sources: &[Source],
) -> RunResult {
    let endpoints = transport::make_cluster(cfg.transport, cfg.n_ranks);
    let mut worlds = replicated_worlds(op, setup, partition, cfg.n_ranks, u0, v0, sources);
    let (outcomes, _recordings) = run_worlds(&mut worlds, endpoints, dt, n_steps, cfg, sources);
    assemble(Operator::ndof(op), &worlds, outcomes)
}

/// [`run_distributed`] on the given transport endpoints (one per rank, e.g.
/// from [`transport::make_cluster`] or wrapped in
/// [`crate::transport::faulty::FaultyTransport`]), returning **each rank's
/// own outcome** and flight recording instead of the first failure — the
/// post-mortem path: recordings come back on success *and* failure, so an
/// injected fault still yields the material for a causally merged crash
/// report.
#[allow(clippy::too_many_arguments)]
pub fn run_distributed_endpoints<O: Operator + DofTopology + Sync>(
    op: &O,
    setup: &LtsSetup,
    partition: &[u32],
    dt: f64,
    u0: &[f64],
    v0: &[f64],
    n_steps: usize,
    cfg: &DistributedConfig,
    sources: &[Source],
    endpoints: Vec<Box<dyn Transport>>,
) -> (Vec<RankRun>, Vec<RankRecording>) {
    let mut worlds = replicated_worlds(op, setup, partition, endpoints.len(), u0, v0, sources);
    run_worlds(&mut worlds, endpoints, dt, n_steps, cfg, sources)
}

/// Run ONE rank of a globally-replicated distributed run on an
/// already-connected endpoint — the building block of the multi-process
/// runner: `wave-lts worker` rebuilds its mesh and exchange plan
/// deterministically, dials the coordinator, and calls this with the
/// resulting [`crate::transport::socket::SocketTransport`].
///
/// Returns the rank's outcome plus its flight recording, on success *and*
/// failure — what the worker ships back to the coordinator as a
/// [`crate::transport::codec::Frame::Flight`] so multi-process post-mortems
/// causally align with in-process ones. The recorder gets its own epoch
/// here (one per OS process); the causal merge never compares raw
/// timestamps across ranks. The online stall monitor needs shared-memory
/// aggregation across ranks, so it is not run here regardless of
/// `cfg.stall_monitor`; the deterministic counters and busy/wait histograms
/// are recorded as usual.
#[allow(clippy::too_many_arguments)]
pub fn run_rank_endpoint<O: Operator>(
    op: &O,
    setup: &LtsSetup,
    plan: &RankPlan,
    rank: usize,
    dt: f64,
    u0: &[f64],
    v0: &[f64],
    n_steps: usize,
    cfg: &DistributedConfig,
    sources: &[Source],
    transport: Box<dyn Transport>,
) -> (RankRun, RankRecording) {
    let mut world = RankWorld::replicated(op, setup, plan.clone(), u0, v0, sources);
    let flight = FlightRecorder::new(cfg.flight_capacity);
    let ctx = RankCtx::new(rank, &mut world, transport, *cfg, sources, dt, flight, None);
    run_rank_loop(ctx, n_steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lts_core::{Chain1d, LtsNewmark, LtsSetup};

    fn serial(
        c: &Chain1d,
        setup: &LtsSetup,
        dt: f64,
        u0: &[f64],
        steps: usize,
    ) -> (Vec<f64>, Vec<f64>) {
        let mut u = u0.to_vec();
        let mut v = vec![0.0; u0.len()];
        let mut lts = LtsNewmark::new(c, setup, dt);
        lts.run(&mut u, &mut v, 0.0, steps, &[]);
        (u, v)
    }

    fn gaussian(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (-((i as f64 - n as f64 / 2.5) / 2.0).powi(2)).exp())
            .collect()
    }

    #[test]
    fn two_ranks_match_serial_single_level() {
        let c = Chain1d::uniform(16, 1.0, 1.0);
        let setup = LtsSetup::new(&c, &[0u8; 16]);
        let u0 = gaussian(17);
        let (us, vs) = serial(&c, &setup, 0.5, &u0, 30);
        let part: Vec<u32> = (0..16).map(|e| u32::from(e >= 8)).collect();
        let cfg = DistributedConfig::new(2);
        let (ud, vd, stats) =
            run_distributed(&c, &setup, &part, 0.5, &u0, &[0.0; 17], 30, &cfg, &[]).unwrap();
        for i in 0..17 {
            assert_eq!(us[i], ud[i], "u[{i}]");
            assert_eq!(vs[i], vd[i], "v[{i}]");
        }
        assert_eq!(stats.len(), 2);
        assert!(stats[0].n_exchanges > 0);
    }

    #[test]
    fn four_ranks_match_serial_three_levels() {
        let mut vel = vec![1.0; 24];
        for (i, vx) in vel.iter_mut().enumerate() {
            if i >= 20 {
                *vx = 4.0;
            } else if i >= 17 {
                *vx = 2.0;
            }
        }
        let c = Chain1d::with_velocities(vel, 1.0);
        let (lv, dt) = c.assign_levels(0.5, 3);
        let setup = LtsSetup::new(&c, &lv);
        assert_eq!(setup.n_levels, 3);
        let u0 = gaussian(25);
        let (us, _) = serial(&c, &setup, dt, &u0, 20);
        let part: Vec<u32> = (0..24).map(|e| (e / 6) as u32).collect();
        let cfg = DistributedConfig::new(4);
        let (ud, _, _) =
            run_distributed(&c, &setup, &part, dt, &u0, &[0.0; 25], 20, &cfg, &[]).unwrap();
        for i in 0..25 {
            assert!(
                (us[i] - ud[i]).abs() < 1e-13,
                "u[{i}]: serial {} vs distributed {}",
                us[i],
                ud[i]
            );
        }
    }

    #[test]
    fn scrambled_partition_still_exact() {
        let mut vel = vec![1.0; 12];
        for v in vel.iter_mut().skip(8) {
            *v = 2.0;
        }
        let c = Chain1d::with_velocities(vel, 1.0);
        let (lv, dt) = c.assign_levels(0.5, 2);
        let setup = LtsSetup::new(&c, &lv);
        let u0 = gaussian(13);
        let (us, _) = serial(&c, &setup, dt, &u0, 15);
        // interleaved ownership → many interfaces
        let part: Vec<u32> = (0..12).map(|e| (e % 3) as u32).collect();
        let cfg = DistributedConfig::new(3);
        let (ud, _, _) =
            run_distributed(&c, &setup, &part, dt, &u0, &[0.0; 13], 15, &cfg, &[]).unwrap();
        for i in 0..13 {
            assert!((us[i] - ud[i]).abs() < 1e-13, "u[{i}]");
        }
    }

    #[test]
    fn single_rank_matches_serial() {
        let c = Chain1d::uniform(8, 1.0, 1.0);
        let setup = LtsSetup::new(&c, &[0u8; 8]);
        let u0 = gaussian(9);
        let (us, _) = serial(&c, &setup, 0.5, &u0, 10);
        let cfg = DistributedConfig::new(1);
        let (ud, _, stats) =
            run_distributed(&c, &setup, &[0; 8], 0.5, &u0, &[0.0; 9], 10, &cfg, &[]).unwrap();
        assert_eq!(us, ud);
        assert_eq!(stats[0].n_exchanges, 0);
    }

    /// The unified boundary-first force path makes overlap a pure *send
    /// placement* choice: fields must agree bit-for-bit, not just to
    /// round-off, and the deterministic counters must be identical.
    #[test]
    fn overlap_matches_blocking_bitwise() {
        let mut vel = vec![1.0; 24];
        for (i, vx) in vel.iter_mut().enumerate() {
            if i >= 20 {
                *vx = 4.0;
            } else if i >= 17 {
                *vx = 2.0;
            }
        }
        let c = Chain1d::with_velocities(vel, 1.0);
        let (lv, dt) = c.assign_levels(0.5, 3);
        let setup = LtsSetup::new(&c, &lv);
        let u0 = gaussian(25);
        let part: Vec<u32> = (0..24).map(|e| (e / 8) as u32).collect();
        let blocking = DistributedConfig::new(3);
        let overlapped = DistributedConfig {
            overlap: true,
            ..blocking
        };
        let (ub, vb, sb) =
            run_distributed(&c, &setup, &part, dt, &u0, &[0.0; 25], 20, &blocking, &[]).unwrap();
        let (uo, vo, so) =
            run_distributed(&c, &setup, &part, dt, &u0, &[0.0; 25], 20, &overlapped, &[]).unwrap();
        for i in 0..25 {
            assert_eq!(ub[i].to_bits(), uo[i].to_bits(), "u[{i}]");
            assert_eq!(vb[i].to_bits(), vo[i].to_bits(), "v[{i}]");
        }
        for (b, o) in sb.iter().zip(&so) {
            assert_eq!(b.elem_ops, o.elem_ops);
            assert_eq!(b.n_exchanges, o.n_exchanges);
            assert_eq!(b.msgs_sent, o.msgs_sent);
            assert_eq!(b.dofs_sent, o.dofs_sent);
        }
    }

    /// Pluggable means interchangeable: every backend must produce the same
    /// field bits and the same deterministic counters as the channel
    /// reference, in both communication modes.
    #[test]
    fn every_transport_matches_channel_bitwise() {
        let mut vel = vec![1.0; 12];
        for v in vel.iter_mut().skip(8) {
            *v = 2.0;
        }
        let c = Chain1d::with_velocities(vel, 1.0);
        let (lv, dt) = c.assign_levels(0.5, 2);
        let setup = LtsSetup::new(&c, &lv);
        let u0 = gaussian(13);
        let part: Vec<u32> = (0..12).map(|e| (e % 3) as u32).collect();
        for overlap in [false, true] {
            let base = DistributedConfig {
                overlap,
                ..DistributedConfig::new(3)
            };
            let (uc, vc, sc) =
                run_distributed(&c, &setup, &part, dt, &u0, &[0.0; 13], 15, &base, &[]).unwrap();
            for kind in [TransportKind::SharedRing, TransportKind::UnixSocket] {
                let cfg = DistributedConfig {
                    transport: kind,
                    ..base
                };
                let (u, v, st) =
                    run_distributed(&c, &setup, &part, dt, &u0, &[0.0; 13], 15, &cfg, &[]).unwrap();
                for i in 0..13 {
                    assert_eq!(uc[i].to_bits(), u[i].to_bits(), "{kind:?} u[{i}]");
                    assert_eq!(vc[i].to_bits(), v[i].to_bits(), "{kind:?} v[{i}]");
                }
                for (a, b) in sc.iter().zip(&st) {
                    assert_eq!(a.elem_ops, b.elem_ops, "{kind:?}");
                    assert_eq!(a.n_exchanges, b.n_exchanges, "{kind:?}");
                    assert_eq!(a.msgs_sent, b.msgs_sent, "{kind:?}");
                    assert_eq!(a.dofs_sent, b.dofs_sent, "{kind:?}");
                }
            }
        }
    }

    #[test]
    fn overlap_covers_all_elements() {
        let c = Chain1d::uniform(12, 1.0, 1.0);
        let setup = LtsSetup::new(&c, &[0u8; 12]);
        let part: Vec<u32> = (0..12).map(|e| u32::from(e >= 6)).collect();
        let plans = crate::exchange::build_plans(&c, &setup, &part, 2);
        for p in &plans {
            for l in 0..setup.n_levels {
                let mut all = p.my_boundary_elems[l].clone();
                all.extend_from_slice(&p.my_interior_elems[l]);
                all.sort_unstable();
                let mut expect = p.my_elems[l].clone();
                expect.sort_unstable();
                assert_eq!(all, expect);
            }
        }
    }

    #[test]
    fn imbalanced_partition_shows_stall() {
        // Fig. 1 scenario: all fine elements on one rank; with amplified
        // work, the coarse-only rank must wait.
        let mut vel = vec![1.0; 16];
        for v in vel.iter_mut().skip(12) {
            *v = 2.0;
        }
        let c = Chain1d::with_velocities(vel, 1.0);
        let (lv, dt) = c.assign_levels(0.5, 2);
        let setup = LtsSetup::new(&c, &lv);
        let part: Vec<u32> = (0..16).map(|e| u32::from(e >= 8)).collect(); // rank 1 has all fine
        let cfg = DistributedConfig {
            record_timeline: true,
            work_amplify: 20_000,
            ..DistributedConfig::new(2)
        };
        let u0 = gaussian(17);
        let (_, _, stats) =
            run_distributed(&c, &setup, &part, dt, &u0, &[0.0; 17], 50, &cfg, &[]).unwrap();
        // rank 0 (coarse only) waits more than rank 1
        assert!(
            stats[0].wait_s > stats[1].wait_s,
            "rank0 wait {} vs rank1 wait {}",
            stats[0].wait_s,
            stats[1].wait_s
        );
        assert!(!stats[0].timeline.is_empty());
    }

    #[test]
    fn monitor_lambda_matches_posthoc_eq21_and_warns() {
        use crate::stats::lambda_from_stats;
        // uniform mesh, even partition — then skew all amplified work onto
        // rank 1 so rank 0 stalls and the online monitor must notice.
        let c = Chain1d::uniform(16, 1.0, 1.0);
        let setup = LtsSetup::new(&c, &[0u8; 16]);
        let part: Vec<u32> = (0..16).map(|e| u32::from(e >= 8)).collect();
        let cfg = DistributedConfig {
            record_timeline: true,
            work_amplify: 60_000,
            amplify_rank: Some(1),
            stall_monitor: Some(MonitorConfig {
                window_exchanges: 4,
                wait_warn_fraction: 0.5,
                log_warnings: false,
            }),
            ..DistributedConfig::new(2)
        };
        let u0 = gaussian(17);
        let (_, _, stats) =
            run_distributed(&c, &setup, &part, 0.5, &u0, &[0.0; 17], 60, &cfg, &[]).unwrap();
        let posthoc = lambda_from_stats(&stats);
        assert!(!posthoc.is_empty());
        for &(l, lam) in &posthoc {
            // the online monitor accumulates the same per-exchange busy
            // durations in integer nanoseconds; after the post-join stamp the
            // gauge must agree with the post-hoc Eq. 21 value
            for st in &stats {
                let gauge = st
                    .registry
                    .gauge(names::STALL_LAMBDA, Some(l))
                    .expect("final lambda gauge stamped on every rank");
                assert!(
                    (gauge - lam).abs() < 1e-3,
                    "level {l}: monitor lambda {gauge} vs post-hoc {lam}"
                );
                let wm = st
                    .registry
                    .gauge(names::STALL_LAMBDA_WM, Some(l))
                    .expect("lambda watermark stamped");
                assert!(wm + 1e-12 >= gauge, "watermark {wm} below final {gauge}");
            }
        }
        // rank 0 idles ≥ threshold → exactly the stalled rank warns
        let warned_0 = stats[0].registry.counter_total(names::STALL_WARNINGS);
        let warned_1 = stats[1].registry.counter_total(names::STALL_WARNINGS);
        assert!(warned_0 >= 1, "stalled rank 0 must raise a warning");
        assert_eq!(warned_1, 0, "busy rank must not warn");
        let wf = stats[0]
            .registry
            .gauge(names::STALL_WAIT_FRAC_WM, Some(0))
            .expect("wait-fraction watermark recorded");
        assert!(wf >= 0.5, "windowed wait fraction {wf} below threshold");
    }

    /// The tentpole's neutrality contract: recorder on vs. off must produce
    /// bitwise-identical fields and exactly identical deterministic
    /// counters — recording is observation, never perturbation.
    #[test]
    fn recorder_on_off_is_bitwise_neutral() {
        let mut vel = vec![1.0; 24];
        for (i, vx) in vel.iter_mut().enumerate() {
            if i >= 20 {
                *vx = 4.0;
            } else if i >= 17 {
                *vx = 2.0;
            }
        }
        let c = Chain1d::with_velocities(vel, 1.0);
        let (lv, dt) = c.assign_levels(0.5, 3);
        let setup = LtsSetup::new(&c, &lv);
        let u0 = gaussian(25);
        let part: Vec<u32> = (0..24).map(|e| (e / 6) as u32).collect();
        let on = DistributedConfig {
            flight_capacity: 512,
            ..DistributedConfig::new(4)
        };
        let off = DistributedConfig {
            flight_capacity: 0,
            ..on
        };
        let (u1, v1, s1) =
            run_distributed(&c, &setup, &part, dt, &u0, &[0.0; 25], 20, &on, &[]).unwrap();
        let (u0r, v0r, s0) =
            run_distributed(&c, &setup, &part, dt, &u0, &[0.0; 25], 20, &off, &[]).unwrap();
        for i in 0..25 {
            assert_eq!(u1[i].to_bits(), u0r[i].to_bits(), "u[{i}]");
            assert_eq!(v1[i].to_bits(), v0r[i].to_bits(), "v[{i}]");
        }
        for (a, b) in s1.iter().zip(&s0) {
            assert_eq!(a.elem_ops, b.elem_ops);
            assert_eq!(a.n_exchanges, b.n_exchanges);
            assert_eq!(a.msgs_sent, b.msgs_sent);
            assert_eq!(a.dofs_sent, b.dofs_sent);
        }
    }

    /// A configured fault yields errors *and* recordings on every rank, and
    /// the recordings merge into a causally valid order with the victim's
    /// terminal fault event present.
    #[test]
    fn config_fault_produces_mergeable_recordings() {
        use crate::transport::faulty::FaultPlan;
        use lts_obs::merge_recordings;
        let mut vel = vec![1.0; 12];
        for v in vel.iter_mut().skip(8) {
            *v = 2.0;
        }
        let c = Chain1d::with_velocities(vel, 1.0);
        let (lv, dt) = c.assign_levels(0.5, 2);
        let setup = LtsSetup::new(&c, &lv);
        let u0 = gaussian(13);
        let part: Vec<u32> = (0..12).map(|e| (e % 3) as u32).collect();
        let cfg = DistributedConfig {
            flight_capacity: 1024,
            fault: Some((
                1,
                FaultPlan {
                    die_on_send_at_level: Some(1),
                    ..FaultPlan::default()
                },
            )),
            ..DistributedConfig::new(3)
        };
        let endpoints = transport::make_cluster(cfg.transport, 3);
        let (outcomes, recs) = run_distributed_endpoints(
            &c,
            &setup,
            &part,
            dt,
            &u0,
            &[0.0; 13],
            15,
            &cfg,
            &[],
            endpoints,
        );
        for (rank, o) in outcomes.iter().enumerate() {
            assert!(o.is_err(), "rank {rank} should fail after the cascade");
        }
        assert_eq!(recs.len(), 3);
        assert!(recs
            .iter()
            .any(|r| r.events.iter().any(|e| e.kind == EventKind::Fault)));
        let merged = merge_recordings(&recs).expect("faulted recordings still merge");
        assert!(!merged.is_empty());
    }

    /// Transport accounting rides along as backend-labelled gauges.
    #[test]
    fn transport_gauges_are_stamped() {
        let c = Chain1d::uniform(8, 1.0, 1.0);
        let setup = LtsSetup::new(&c, &[0u8; 8]);
        let u0 = gaussian(9);
        let part: Vec<u32> = (0..8).map(|e| u32::from(e >= 4)).collect();
        let cfg = DistributedConfig {
            transport: TransportKind::SharedRing,
            ..DistributedConfig::new(2)
        };
        let (_, _, stats) =
            run_distributed(&c, &setup, &part, 0.5, &u0, &[0.0; 9], 5, &cfg, &[]).unwrap();
        for st in &stats {
            let msgs = st
                .registry
                .gauge_labeled(names::TRANSPORT_MSGS, "shm-ring")
                .expect("transport msgs gauge");
            assert_eq!(msgs as u64, st.msgs_sent);
            assert!(st
                .registry
                .gauge_labeled(names::TRANSPORT_SEND_BLOCK_S, "shm-ring")
                .is_some());
        }
    }
}
