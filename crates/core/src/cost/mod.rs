//! The predictive cost plane: model-driven repartitioning and sizing with
//! calibrated swap costs.
//!
//! The continuous adaptation plane (see [`crate::drift`]) decides with
//! thresholds: drift past a distance, contention past a ratio, backlog past
//! a bound — each with its own hand-tuned hysteresis. This module replaces
//! that question with the one "On the Cost of Concurrency in TM"-style
//! reasoning actually asks: *adapt only when the predicted saving exceeds
//! the measured cost of the change itself*. It is organised as four layers:
//!
//! | module | role |
//! |---|---|
//! | [`calibrate`] | EWMA estimates of what a swap actually costs on this host — publish latency, thread spawn/retire time, telemetry rebucket — measured online from the swaps the system performs, never assumed |
//! | [`model`] | the per-epoch cost model: queueing-imbalance, abort, overload, and idle-capacity terms, all in task-equivalents |
//! | [`plan`] | candidate enumeration: boundary moves at fixed width, width changes at frozen boundaries, and joint changes, each scored with a predicted next-epoch cost and a calibrated swap price |
//! | [`decide`] | the [`CostPolicy`]: adopt the plan maximizing trusted gain minus margined swap cost, with prediction-error feedback (trust decay / margin widening) in place of the threshold plane's two-epoch confirmation |
//!
//! The scheduler consumes exactly one type from here —
//! [`CostPolicy`] via
//! [`crate::AdaptiveKeyScheduler::with_cost_model`] — and stays on its
//! threshold triggers until the calibrator is warm (the first adaptations
//! feed it), so cost mode degrades gracefully to the proven behaviour when
//! it has nothing to price with.

pub mod calibrate;
pub mod decide;
pub mod model;
pub mod plan;

pub use calibrate::{CalibrationView, Ewma, SwapCostCalibrator, DEFAULT_COST_ALPHA};
pub use decide::{CostDecision, CostModelView, CostPolicy};
pub use model::{CostModel, CostModelConfig, EpochObservation};
pub use plan::{cut_abort_fraction, CandidatePlan, PlanContext, PlanKind};
