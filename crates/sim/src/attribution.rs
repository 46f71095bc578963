//! Fidelity attribution: decomposing `log_program_fidelity` into per-gate
//! loss terms with heat provenance.
//!
//! The simulator reports program fidelity as one opaque scalar. This module
//! is the fidelity counterpart of the schedule explainer: it re-runs the
//! physics replay with a **heat-provenance ledger** attached — every update
//! to a chain's motional mode `n̄` is recorded as a tagged
//! [`HeatDeposit`] (background idle heating, split/move/merge pulses,
//! zone reorders, inherited energy shares), each pointing at the operation
//! that deposited it — and then decomposes every gate's log-fidelity loss
//! into a *duration* term (`Γτ`) and a *motional* term (`A(2n̄+1)`), with
//! the motional part blamed back through the ledger onto the shuttles and
//! idle windows that heated the chain.
//!
//! # The two bit-for-bit identities
//!
//! The attribution is trustworthy because it is exact, not approximate:
//!
//! 1. **Log identity** — replaying the recorded [`LossTerm`]s in event
//!    order ([`FidelityAttribution::total_log`]) reproduces the
//!    simulator's `log_program_fidelity` **bit for bit**: the terms are
//!    the simulator's own `ln` summands in the simulator's own
//!    accumulation order.
//! 2. **Ledger identity** — folding a chain's deposits in order
//!    ([`HeatLedger::n_bar_at`]) reproduces the simulator's `n̄` for that
//!    chain at every gate sample point and at program end, **bit for
//!    bit**: the fold applies the exact additions the replay performed
//!    (see [`HeatDeposit`] for the fold rule).
//!
//! Both identities are checked by [`FidelityAttribution::identity_holds`];
//! `muzzle explain --fidelity` hard-errors and `muzzle snapshot`
//! asserts when either is violated.
//!
//! The ledger observes and never decides: the instrumented replay performs
//! the same arithmetic in the same order as the plain one, so the attached
//! [`SimReport`] is bit-for-bit the uninstrumented report.

use crate::error::SimError;
use crate::fidelity::chain_scaling_factor;
use crate::params::SimParams;
use crate::report::SimReport;
use crate::simulator::{device_model, simulate_inner, OpObserver};
use qccd_circuit::{Circuit, GateId, GateQubits};
use qccd_machine::{IonId, MachineSpec, Schedule, TrapId};
use qccd_route::TransportSchedule;
use qccd_timing::TimingModel;
use serde::{Deserialize, Serialize};

/// What kind of physical process deposited heat into a chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HeatKind {
    /// Background heating over a trap-local idle+busy interval.
    BackgroundIdle,
    /// The split pulse's own quanta (deposited into the source chain).
    Split,
    /// Transit heating of the shuttled ion (arrives with the merge).
    Move,
    /// The merge pulse's own quanta (deposited into the destination chain).
    Merge,
    /// An intra-trap zone-reorder pulse.
    ZoneReorder,
    /// Energy share carried between chains by a shuttled ion: negative on
    /// the source chain (the departing ion takes its per-ion share),
    /// positive on the destination (the share arrives with the merge).
    InheritedShare,
}

impl HeatKind {
    /// Short lower-case label for tables.
    pub fn label(self) -> &'static str {
        match self {
            HeatKind::BackgroundIdle => "background-idle",
            HeatKind::Split => "split",
            HeatKind::Move => "move",
            HeatKind::Merge => "merge",
            HeatKind::ZoneReorder => "zone-reorder",
            HeatKind::InheritedShare => "inherited-share",
        }
    }
}

/// One labeled summand of a [`HeatDeposit`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HeatPart {
    /// The physical process behind this summand.
    pub kind: HeatKind,
    /// Quanta added (negative only for the source side of
    /// [`HeatKind::InheritedShare`]).
    pub quanta: f64,
}

/// One update to a chain's motional mode, as the replay performed it.
///
/// The replay's `n̄` for a chain is recovered by folding its deposits in
/// order with
///
/// ```text
/// n̄ ← n̄ + (part₀ + part₁ + …)        // both folds left-to-right
/// ```
///
/// which is *exactly* the floating-point expression the simulator
/// evaluated — deposits whose source statement updated `n̄` twice (a
/// split's `−share` then `+split_quanta`) are recorded as two deposits, and
/// statements that added one multi-term sum (a merge's
/// `(share + move) + merge`, a zone move's `heat + reorder`) are one
/// deposit with ordered parts. That is what makes [`HeatLedger::n_bar_at`]
/// bit-for-bit, not just close.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HeatDeposit {
    /// Timeline time of the depositing operation's end, µs.
    pub t_us: f64,
    /// Sequential index (replay order) of the shuttle hop responsible,
    /// for split/move/merge/share deposits.
    pub shuttle: Option<usize>,
    /// The ion whose shuttle or reorder deposited this, when one did.
    pub ion: Option<IonId>,
    /// Ordered summands (see the fold rule above).
    pub parts: Vec<HeatPart>,
    /// Log-fidelity loss this deposit caused in *downstream* gates on this
    /// chain: `net_quanta × Σ (scaleᵍ · 2Aᵍ)` over every later gate `g`
    /// that sampled the heated `n̄`. Filled by the attribution pass;
    /// negative for the source side of an inherited share (removing
    /// energy *helped* later gates).
    pub blamed_log_loss: f64,
}

impl HeatDeposit {
    /// The deposit's net quanta: its parts folded left-to-right.
    pub fn net_quanta(&self) -> f64 {
        self.parts.iter().fold(0.0f64, |acc, p| acc + p.quanta)
    }
}

/// Per-chain heat provenance: every `n̄` update of the replay, tagged.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct HeatLedger {
    /// Deposits per trap, in replay order.
    pub deposits: Vec<Vec<HeatDeposit>>,
}

impl HeatLedger {
    /// The chain's motional mode after its first `cursor` deposits,
    /// reproduced bit-for-bit by the [`HeatDeposit`] fold rule.
    pub fn n_bar_at(&self, trap: usize, cursor: usize) -> f64 {
        self.deposits[trap][..cursor]
            .iter()
            .fold(0.0f64, |acc, d| acc + d.net_quanta())
    }

    /// The chain's final motional mode (all deposits folded).
    pub fn final_n_bar(&self, trap: usize) -> f64 {
        self.n_bar_at(trap, self.deposits[trap].len())
    }

    /// Total quanta deposited into `trap` by positive contributions
    /// (ignores the negative source side of inherited shares) — a "how
    /// much heat arrived here" figure for tables.
    pub fn gross_quanta(&self, trap: usize) -> f64 {
        self.deposits[trap]
            .iter()
            .flat_map(|d| d.parts.iter())
            .filter(|p| p.quanta > 0.0)
            .map(|p| p.quanta)
            .sum()
    }
}

/// Records deposits (and per-gate ledger cursors) during an instrumented
/// replay. Threaded through `simulate_inner` as an optional side channel;
/// the default `None` path performs no recording at all.
#[derive(Debug, Default)]
pub(crate) struct LedgerRecorder {
    pub(crate) ledger: HeatLedger,
    /// For the i-th replayed gate: how many deposits its trap's ledger
    /// held when the gate sampled `n̄` (its own background deposit
    /// included).
    pub(crate) gate_cursors: Vec<usize>,
    /// Trap of the i-th replayed gate (for cursor bookkeeping).
    pub(crate) gate_traps: Vec<usize>,
    shuttle_seq: usize,
}

impl LedgerRecorder {
    pub(crate) fn new(num_traps: usize) -> Self {
        LedgerRecorder {
            ledger: HeatLedger {
                deposits: vec![Vec::new(); num_traps],
            },
            gate_cursors: Vec::new(),
            gate_traps: Vec::new(),
            shuttle_seq: 0,
        }
    }

    /// Background heating `n̄ += quanta`. Exact-zero deposits are skipped:
    /// `n̄` is never `-0.0` here, so `n̄ + 0.0 == n̄` bit-for-bit.
    pub(crate) fn background(&mut self, trap: usize, quanta: f64, t_us: f64) {
        if quanta == 0.0 {
            return;
        }
        self.ledger.deposits[trap].push(HeatDeposit {
            t_us,
            shuttle: None,
            ion: None,
            parts: vec![HeatPart {
                kind: HeatKind::BackgroundIdle,
                quanta,
            }],
            blamed_log_loss: 0.0,
        });
    }

    /// A split: `n̄ = n̄ − share + split_quanta` on the source chain. Two
    /// deposits, because the statement updates the accumulator twice
    /// (IEEE `a − b` is exactly `a + (−b)`).
    pub(crate) fn split(
        &mut self,
        trap: usize,
        share: f64,
        split_quanta: f64,
        t_us: f64,
        ion: IonId,
    ) {
        let shuttle = Some(self.shuttle_seq);
        self.ledger.deposits[trap].push(HeatDeposit {
            t_us,
            shuttle,
            ion: Some(ion),
            parts: vec![HeatPart {
                kind: HeatKind::InheritedShare,
                quanta: -share,
            }],
            blamed_log_loss: 0.0,
        });
        self.ledger.deposits[trap].push(HeatDeposit {
            t_us,
            shuttle,
            ion: Some(ion),
            parts: vec![HeatPart {
                kind: HeatKind::Split,
                quanta: split_quanta,
            }],
            blamed_log_loss: 0.0,
        });
    }

    /// A merge: `n̄ += (share + move_quanta) + merge_quanta` on the
    /// destination chain — one deposit whose ordered parts fold to the
    /// exact carried-energy sum. Advances the shuttle sequence (split and
    /// merge of one hop share an index).
    pub(crate) fn merge(
        &mut self,
        trap: usize,
        share: f64,
        move_quanta: f64,
        merge_quanta: f64,
        t_us: f64,
        ion: IonId,
    ) {
        self.ledger.deposits[trap].push(HeatDeposit {
            t_us,
            shuttle: Some(self.shuttle_seq),
            ion: Some(ion),
            parts: vec![
                HeatPart {
                    kind: HeatKind::InheritedShare,
                    quanta: share,
                },
                HeatPart {
                    kind: HeatKind::Move,
                    quanta: move_quanta,
                },
                HeatPart {
                    kind: HeatKind::Merge,
                    quanta: merge_quanta,
                },
            ],
            blamed_log_loss: 0.0,
        });
        self.shuttle_seq += 1;
    }

    /// A zone reorder: `n̄ += heat + reorder_quanta` — one two-part
    /// deposit matching the statement's single sum.
    pub(crate) fn zone(
        &mut self,
        trap: usize,
        heat: f64,
        reorder_quanta: f64,
        t_us: f64,
        ion: IonId,
    ) {
        self.ledger.deposits[trap].push(HeatDeposit {
            t_us,
            shuttle: None,
            ion: Some(ion),
            parts: vec![
                HeatPart {
                    kind: HeatKind::BackgroundIdle,
                    quanta: heat,
                },
                HeatPart {
                    kind: HeatKind::ZoneReorder,
                    quanta: reorder_quanta,
                },
            ],
            blamed_log_loss: 0.0,
        });
    }

    /// Marks a gate sampling its trap's `n̄` (call after the gate's
    /// background deposit).
    pub(crate) fn note_gate(&mut self, trap: usize) {
        self.gate_cursors.push(self.ledger.deposits[trap].len());
        self.gate_traps.push(trap);
    }
}

/// One event-ordered summand of `log_program_fidelity`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LossTerm {
    /// A gate's log-fidelity loss, split into its physical causes.
    Gate {
        /// Which circuit gate.
        gate: GateId,
        /// The trap it ran in.
        trap: TrapId,
        /// Start time, µs.
        start_us: f64,
        /// End time, µs.
        end_us: f64,
        /// Ions in the chain when the gate ran (drives `A`).
        chain_len: u32,
        /// Gate duration `τ` under the active timing model, µs.
        tau_us: f64,
        /// The gate's fidelity — the exact value the simulator multiplied
        /// in. `-ln` of this is the term's contribution to the log sum.
        fidelity: f64,
        /// The chain's `n̄` when the gate sampled it.
        n_bar: f64,
        /// Total log loss `−ln F` (`+∞` when the gate saturated at
        /// fidelity 0).
        log_loss: f64,
        /// Share of `log_loss` caused by the duration term `Γτ`.
        duration_loss: f64,
        /// Share of `log_loss` caused by the motional term `A(2n̄+1)`.
        motional_loss: f64,
        /// The motional share's irreducible zero-point part (`n̄ = 0`
        /// would still pay this).
        zero_point_loss: f64,
        /// The motional share's heat-driven part (`2An̄`, scaled) — the
        /// part the ledger blames on depositing operations.
        heat_loss: f64,
        /// Loss per quantum of pre-gate heat (`scale · 2A`): the weight
        /// the blame pass charges deposits preceding this gate.
        heat_weight: f64,
        /// Deposits on `trap`'s ledger when the gate sampled `n̄`
        /// (feeds [`HeatLedger::n_bar_at`] for the ledger identity).
        ledger_cursor: usize,
        /// True when the gate's fidelity clamped to 0 (program fidelity
        /// is then exactly 0 and losses are reported unscaled).
        saturated: bool,
    },
    /// One shuttle hop's fixed transport-pulse loss.
    Shuttle {
        /// Sequential hop index (matches [`HeatDeposit::shuttle`]).
        shuttle: usize,
        /// The moved ion.
        ion: IonId,
        /// Source trap.
        from: TrapId,
        /// Destination trap.
        to: TrapId,
        /// Start time of the hop's transport round, µs.
        start_us: f64,
        /// End time of the hop's transport round, µs.
        end_us: f64,
        /// Log loss `−ln(1 − p_shuttle)` of the hop's pulses.
        log_loss: f64,
    },
}

impl LossTerm {
    /// The term's total log loss.
    pub fn log_loss(&self) -> f64 {
        match *self {
            LossTerm::Gate { log_loss, .. } | LossTerm::Shuttle { log_loss, .. } => log_loss,
        }
    }
}

/// Heat blamed on one shuttle hop, aggregated from the ledger.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShuttleBlame {
    /// Sequential hop index.
    pub shuttle: usize,
    /// The moved ion.
    pub ion: IonId,
    /// Source trap.
    pub from: TrapId,
    /// Destination trap.
    pub to: TrapId,
    /// The hop's fixed transport-pulse log loss.
    pub pulse_log_loss: f64,
    /// Downstream gate log loss blamed on the hop's heat deposits
    /// (split/move/merge quanta and both sides of the inherited share).
    pub heat_log_loss: f64,
}

impl ShuttleBlame {
    /// Pulse loss plus blamed heat loss.
    pub fn total_log_loss(&self) -> f64 {
        self.pulse_log_loss + self.heat_log_loss
    }
}

/// The full decomposition of one replay's `log_program_fidelity`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FidelityAttribution {
    /// The instrumented replay's report — bit-for-bit the plain
    /// simulator's (the ledger observes, never decides).
    pub report: SimReport,
    /// Event-ordered loss terms; see [`Self::total_log`].
    pub terms: Vec<LossTerm>,
    /// The heat-provenance ledger, blame filled in.
    pub ledger: HeatLedger,
    /// Final per-trap motional modes (the replay's own values).
    pub final_n_bar: Vec<f64>,
    /// Sum of every gate's `duration_loss`.
    pub gate_duration_loss: f64,
    /// Sum of every gate's `motional_loss`.
    pub gate_motional_loss: f64,
    /// Sum of every gate's `zero_point_loss`.
    pub gate_zero_point_loss: f64,
    /// Sum of every gate's `heat_loss`.
    pub gate_heat_loss: f64,
    /// Sum of every shuttle hop's pulse log loss.
    pub shuttle_pulse_loss: f64,
    /// Gates whose fidelity clamped to 0 (loss split then unscaled).
    pub saturated_gates: usize,
}

impl FidelityAttribution {
    /// Replays the loss terms in event order with the simulator's exact
    /// fold: `Σ ln F` over gates (any `F ≤ 0` collapses the program to
    /// `−∞`) plus `Σ ln(1 − p_shuttle)` over hops. Equals
    /// `report.log_program_fidelity` bit for bit.
    pub fn total_log(&self) -> f64 {
        let mut sum = 0.0f64;
        let mut zero_fidelity = false;
        for term in &self.terms {
            match *term {
                LossTerm::Gate { fidelity, .. } => {
                    if fidelity <= 0.0 {
                        zero_fidelity = true;
                    } else {
                        sum += fidelity.ln();
                    }
                }
                // Negation is exact: −log_loss is the simulator's
                // `ln(1 − p)` summand, bit for bit.
                LossTerm::Shuttle { log_loss, .. } => sum += -log_loss,
            }
        }
        if zero_fidelity {
            f64::NEG_INFINITY
        } else {
            sum
        }
    }

    /// The log identity: [`Self::total_log`] reproduces the report's
    /// `log_program_fidelity` bit for bit (`−∞` compares equal to `−∞`).
    pub fn log_identity_holds(&self) -> bool {
        self.total_log().to_bits() == self.report.log_program_fidelity.to_bits()
    }

    /// The ledger identity: folding each chain's deposits reproduces the
    /// simulator's `n̄` at every gate sample point and at program end,
    /// bit for bit.
    pub fn ledger_identity_holds(&self) -> bool {
        let gates_ok = self.terms.iter().all(|term| match *term {
            LossTerm::Gate {
                trap,
                n_bar,
                ledger_cursor,
                ..
            } => self.ledger.n_bar_at(trap.index(), ledger_cursor).to_bits() == n_bar.to_bits(),
            LossTerm::Shuttle { .. } => true,
        });
        let finals_ok = self
            .final_n_bar
            .iter()
            .enumerate()
            .all(|(t, &n)| self.ledger.final_n_bar(t).to_bits() == n.to_bits());
        gates_ok && finals_ok
    }

    /// Both identities at once — the attribution's trust anchor.
    pub fn identity_holds(&self) -> bool {
        self.log_identity_holds() && self.ledger_identity_holds()
    }

    /// Total log loss `−log_program_fidelity` (`+∞` on saturation).
    pub fn total_loss(&self) -> f64 {
        -self.report.log_program_fidelity
    }

    /// Duration share of the decomposed loss, in `[0, 1]` (0 when the
    /// program is lossless).
    pub fn duration_share(&self) -> f64 {
        let total = self.gate_duration_loss + self.gate_motional_loss + self.shuttle_pulse_loss;
        if total <= 0.0 {
            return 0.0;
        }
        self.gate_duration_loss / total
    }

    /// Motional share of the decomposed loss, in `[0, 1]`.
    pub fn motional_share(&self) -> f64 {
        let total = self.gate_duration_loss + self.gate_motional_loss + self.shuttle_pulse_loss;
        if total <= 0.0 {
            return 0.0;
        }
        self.gate_motional_loss / total
    }

    /// The `k` worst gate terms by total log loss, ties broken toward the
    /// earlier gate so the ranking is deterministic.
    pub fn worst_gates(&self, k: usize) -> Vec<&LossTerm> {
        let mut gates: Vec<&LossTerm> = self
            .terms
            .iter()
            .filter(|t| matches!(t, LossTerm::Gate { .. }))
            .collect();
        gates.sort_by(|a, b| b.log_loss().total_cmp(&a.log_loss()));
        gates.truncate(k);
        gates
    }

    /// Traps ranked by the gate log loss blamed on heat deposited into
    /// them: `(trap, blamed loss, gross quanta deposited)`, hottest
    /// first, ties toward the lower index.
    pub fn hottest_traps(&self, k: usize) -> Vec<(usize, f64, f64)> {
        let mut traps: Vec<(usize, f64, f64)> = self
            .ledger
            .deposits
            .iter()
            .enumerate()
            .map(|(t, deposits)| {
                let blamed: f64 = deposits.iter().map(|d| d.blamed_log_loss).sum();
                (t, blamed, self.ledger.gross_quanta(t))
            })
            .collect();
        traps.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        traps.truncate(k);
        traps
    }

    /// Shuttle hops ranked by total blamed loss (fixed pulse loss plus
    /// downstream heat loss), costliest first, ties toward the earlier
    /// hop.
    pub fn costliest_shuttles(&self, k: usize) -> Vec<ShuttleBlame> {
        let mut by_hop: Vec<ShuttleBlame> = self
            .terms
            .iter()
            .filter_map(|t| match *t {
                LossTerm::Shuttle {
                    shuttle,
                    ion,
                    from,
                    to,
                    log_loss,
                    ..
                } => Some(ShuttleBlame {
                    shuttle,
                    ion,
                    from,
                    to,
                    pulse_log_loss: log_loss,
                    heat_log_loss: 0.0,
                }),
                LossTerm::Gate { .. } => None,
            })
            .collect();
        for deposits in &self.ledger.deposits {
            for d in deposits {
                if let Some(hop) = d.shuttle {
                    by_hop[hop].heat_log_loss += d.blamed_log_loss;
                }
            }
        }
        by_hop.sort_by(|a, b| {
            b.total_log_loss()
                .total_cmp(&a.total_log_loss())
                .then(a.shuttle.cmp(&b.shuttle))
        });
        by_hop.truncate(k);
        by_hop
    }
}

/// Attributes a serial (uniform-hop) replay — the fidelity counterpart of
/// [`simulate`](crate::simulate).
///
/// # Errors
///
/// Same conditions as [`simulate`](crate::simulate).
pub fn attribute_fidelity(
    schedule: &Schedule,
    circuit: &Circuit,
    spec: &MachineSpec,
    params: &SimParams,
) -> Result<FidelityAttribution, SimError> {
    attribute_inner(schedule, circuit, spec, params, None, None)
}

/// Attributes a timed transport-round replay — the fidelity counterpart
/// of [`simulate_timed`](crate::simulate_timed).
///
/// # Errors
///
/// Same conditions as [`simulate_timed`](crate::simulate_timed).
pub fn attribute_fidelity_timed(
    schedule: &Schedule,
    transport: &TransportSchedule,
    circuit: &Circuit,
    spec: &MachineSpec,
    params: &SimParams,
    model: &TimingModel,
) -> Result<FidelityAttribution, SimError> {
    attribute_inner(
        schedule,
        circuit,
        spec,
        params,
        Some(transport),
        Some(model),
    )
}

fn attribute_inner(
    schedule: &Schedule,
    circuit: &Circuit,
    spec: &MachineSpec,
    params: &SimParams,
    transport: Option<&TransportSchedule>,
    model: Option<&TimingModel>,
) -> Result<FidelityAttribution, SimError> {
    let mut recorder = LedgerRecorder::new(spec.num_traps() as usize);
    let mut events: Vec<OpObserver> = Vec::new();
    let (report, final_n_bar) = simulate_inner(
        schedule,
        circuit,
        spec,
        params,
        transport,
        model,
        Some(&mut recorder),
        &mut |obs| events.push(obs),
    )?;

    // The same default-model fallback the replay applied: τ below must be
    // the duration the fidelity model charged.
    let model = &device_model(model);

    let shuttle_hop_loss = -(1.0 - params.shuttle_infidelity).ln();
    let mut terms = Vec::with_capacity(events.len());
    let mut gate_idx = 0usize;
    let mut shuttle_idx = 0usize;
    let mut gate_duration_loss = 0.0f64;
    let mut gate_motional_loss = 0.0f64;
    let mut gate_zero_point_loss = 0.0f64;
    let mut gate_heat_loss = 0.0f64;
    let mut shuttle_pulse_loss = 0.0f64;
    let mut saturated_gates = 0usize;
    for obs in events {
        match obs {
            OpObserver::Gate {
                gate,
                trap,
                start_us,
                end_us,
                fidelity,
                n_bar,
                chain_len,
            } => {
                let two_qubit = matches!(circuit.gate(gate).qubits, GateQubits::Two(_, _));
                let tau_us = if two_qubit {
                    model.two_qubit_gate_us(chain_len)
                } else {
                    model.one_qubit_gate_us()
                };
                // Linear loss terms of §II-B3: F = 1 − Γτ − A(2n̄+1).
                let duration_term = params.gamma_per_us * tau_us;
                let a = if two_qubit {
                    chain_scaling_factor(params, chain_len)
                } else {
                    0.0
                };
                let motional_term = a * (2.0 * n_bar + 1.0);
                let saturated = fidelity <= 0.0;
                let log_loss = if saturated {
                    f64::INFINITY
                } else {
                    -fidelity.ln()
                };
                // Distribute −ln F over the linear terms proportionally
                // (−ln(1−x) ≥ x, so `scale` ≥ 1 away from saturation).
                // Saturated gates report the unscaled linear terms.
                let denom = duration_term + motional_term;
                let scale = if saturated || denom <= 0.0 {
                    1.0
                } else {
                    log_loss / denom
                };
                let duration_loss = scale * duration_term;
                let motional_loss = scale * motional_term;
                let zero_point_loss = scale * a;
                let heat_weight = scale * 2.0 * a;
                let heat_loss = heat_weight * n_bar;
                if saturated {
                    saturated_gates += 1;
                }
                gate_duration_loss += duration_loss;
                gate_motional_loss += motional_loss;
                gate_zero_point_loss += zero_point_loss;
                gate_heat_loss += heat_loss;
                terms.push(LossTerm::Gate {
                    gate,
                    trap,
                    start_us,
                    end_us,
                    chain_len,
                    tau_us,
                    fidelity,
                    n_bar,
                    log_loss,
                    duration_loss,
                    motional_loss,
                    zero_point_loss,
                    heat_loss,
                    heat_weight,
                    ledger_cursor: recorder.gate_cursors[gate_idx],
                    saturated,
                });
                gate_idx += 1;
            }
            OpObserver::Shuttle {
                ion,
                from,
                to,
                start_us,
                end_us,
            } => {
                shuttle_pulse_loss += shuttle_hop_loss;
                terms.push(LossTerm::Shuttle {
                    shuttle: shuttle_idx,
                    ion,
                    from,
                    to,
                    start_us,
                    end_us,
                    log_loss: shuttle_hop_loss,
                });
                shuttle_idx += 1;
            }
        }
    }

    // Blame pass: charge each deposit the heat-loss weight of every later
    // gate on its chain. Per trap, gates arrive with non-decreasing
    // ledger cursors, so one backward sweep with a suffix sum is O(D+G).
    let mut ledger = recorder.ledger;
    let mut gates_per_trap: Vec<Vec<(usize, f64)>> = vec![Vec::new(); ledger.deposits.len()];
    for term in &terms {
        if let LossTerm::Gate {
            trap,
            heat_weight,
            ledger_cursor,
            ..
        } = *term
        {
            gates_per_trap[trap.index()].push((ledger_cursor, heat_weight));
        }
    }
    for (t, deposits) in ledger.deposits.iter_mut().enumerate() {
        let gates = &gates_per_trap[t];
        let mut g = gates.len();
        let mut suffix_weight = 0.0f64;
        for (i, d) in deposits.iter_mut().enumerate().rev() {
            // A gate at cursor c sampled deposits [0, c): deposit i feeds
            // it exactly when c > i.
            while g > 0 && gates[g - 1].0 > i {
                suffix_weight += gates[g - 1].1;
                g -= 1;
            }
            d.blamed_log_loss = d.net_quanta() * suffix_weight;
        }
    }

    Ok(FidelityAttribution {
        report,
        terms,
        ledger,
        final_n_bar,
        gate_duration_loss,
        gate_motional_loss,
        gate_zero_point_loss,
        gate_heat_loss,
        shuttle_pulse_loss,
        saturated_gates,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate;
    use qccd_circuit::{Opcode, Qubit};
    use qccd_machine::{InitialMapping, Operation};

    fn fixture() -> (Circuit, MachineSpec, Schedule) {
        let mut c = Circuit::new(4);
        c.push_two_qubit(Opcode::Ms, Qubit(0), Qubit(1)).unwrap();
        c.push_single_qubit(Opcode::Rz, Qubit(2)).unwrap();
        c.push_two_qubit(Opcode::Ms, Qubit(2), Qubit(3)).unwrap();
        c.push_two_qubit(Opcode::Ms, Qubit(1), Qubit(2)).unwrap();
        let spec = MachineSpec::linear(2, 4, 1).unwrap();
        let mapping =
            InitialMapping::from_traps(&spec, vec![TrapId(0), TrapId(0), TrapId(1), TrapId(1)])
                .unwrap();
        let schedule = Schedule::new(
            mapping,
            vec![
                Operation::Gate {
                    gate: GateId(0),
                    trap: TrapId(0),
                },
                Operation::Gate {
                    gate: GateId(1),
                    trap: TrapId(1),
                },
                Operation::Gate {
                    gate: GateId(2),
                    trap: TrapId(1),
                },
                Operation::Shuttle {
                    ion: IonId(1),
                    from: TrapId(0),
                    to: TrapId(1),
                },
                Operation::Gate {
                    gate: GateId(3),
                    trap: TrapId(1),
                },
            ],
        );
        (c, spec, schedule)
    }

    #[test]
    fn identities_hold_and_report_matches_plain_replay() {
        let (c, spec, schedule) = fixture();
        let params = SimParams::default();
        let plain = simulate(&schedule, &c, &spec, &params).unwrap();
        let attr = attribute_fidelity(&schedule, &c, &spec, &params).unwrap();
        assert_eq!(attr.report, plain, "attribution observes, never decides");
        assert!(attr.log_identity_holds());
        assert!(attr.ledger_identity_holds());
        assert_eq!(
            attr.total_log().to_bits(),
            plain.log_program_fidelity.to_bits()
        );
    }

    #[test]
    fn terms_cover_every_gate_and_shuttle() {
        let (c, spec, schedule) = fixture();
        let attr = attribute_fidelity(&schedule, &c, &spec, &SimParams::default()).unwrap();
        let gates = attr
            .terms
            .iter()
            .filter(|t| matches!(t, LossTerm::Gate { .. }))
            .count();
        let shuttles = attr
            .terms
            .iter()
            .filter(|t| matches!(t, LossTerm::Shuttle { .. }))
            .count();
        assert_eq!(gates, attr.report.gates);
        assert_eq!(shuttles, attr.report.shuttles);
        assert_eq!(attr.saturated_gates, 0);
    }

    #[test]
    fn one_qubit_gates_pay_duration_only() {
        let (c, spec, schedule) = fixture();
        let attr = attribute_fidelity(&schedule, &c, &spec, &SimParams::default()).unwrap();
        let rz = attr
            .terms
            .iter()
            .find_map(|t| match *t {
                LossTerm::Gate {
                    gate: GateId(1),
                    motional_loss,
                    duration_loss,
                    heat_weight,
                    ..
                } => Some((motional_loss, duration_loss, heat_weight)),
                _ => None,
            })
            .expect("the Rz term exists");
        assert_eq!(rz.0, 0.0, "no motional coupling for 1q gates");
        assert!(rz.1 > 0.0, "Γτ is still paid");
        assert_eq!(rz.2, 0.0);
    }

    #[test]
    fn loss_split_roughly_recovers_total() {
        let (c, spec, schedule) = fixture();
        let attr = attribute_fidelity(&schedule, &c, &spec, &SimParams::default()).unwrap();
        let recomposed =
            attr.gate_duration_loss + attr.gate_motional_loss + attr.shuttle_pulse_loss;
        let total = attr.total_loss();
        assert!(
            (recomposed - total).abs() <= 1e-12 * total.max(1.0),
            "split sums to the total up to float error: {recomposed} vs {total}"
        );
        let shares = attr.duration_share() + attr.motional_share();
        assert!(shares <= 1.0 + 1e-12);
    }

    #[test]
    fn blame_lands_on_the_shuttle_and_idle_windows() {
        let (c, spec, schedule) = fixture();
        let attr = attribute_fidelity(&schedule, &c, &spec, &SimParams::default()).unwrap();
        let hops = attr.costliest_shuttles(10);
        assert_eq!(hops.len(), 1);
        assert!(
            hops[0].heat_log_loss > 0.0,
            "gate 3 runs after the merge, so the hop's heat is blamed"
        );
        // Every deposit's blame sums (approximately) to the heat loss of
        // the gates that sampled it; exactness lives in the identities.
        let blamed: f64 = attr
            .ledger
            .deposits
            .iter()
            .flatten()
            .map(|d| d.blamed_log_loss)
            .sum();
        assert!(
            (blamed - attr.gate_heat_loss).abs() <= 1e-12 * attr.gate_heat_loss.max(1.0),
            "{blamed} vs {}",
            attr.gate_heat_loss
        );
        let hottest = attr.hottest_traps(2);
        assert_eq!(hottest.len(), 2);
        assert!(hottest[0].1 >= hottest[1].1);
    }

    #[test]
    fn worst_gates_rank_by_loss() {
        let (c, spec, schedule) = fixture();
        let attr = attribute_fidelity(&schedule, &c, &spec, &SimParams::default()).unwrap();
        let worst = attr.worst_gates(2);
        assert_eq!(worst.len(), 2);
        assert!(worst[0].log_loss() >= worst[1].log_loss());
        // Gate 3 runs in the post-merge 3-ion chain: it must be the worst.
        assert!(
            matches!(worst[0], LossTerm::Gate { gate, .. } if *gate == GateId(3)),
            "{:?}",
            worst[0]
        );
    }

    #[test]
    fn saturated_gate_collapses_to_neg_infinity_but_identity_holds() {
        let (c, spec, schedule) = fixture();
        let params = SimParams {
            motional_scale_a0: 1.0, // A(2n̄+1) ≥ 1 ⇒ F clamps to 0
            ..SimParams::default()
        };
        let attr = attribute_fidelity(&schedule, &c, &spec, &params).unwrap();
        assert!(attr.saturated_gates > 0);
        assert_eq!(attr.report.log_program_fidelity, f64::NEG_INFINITY);
        assert!(attr.log_identity_holds(), "−∞ matches −∞ bit for bit");
        assert!(attr.ledger_identity_holds());
    }
}
