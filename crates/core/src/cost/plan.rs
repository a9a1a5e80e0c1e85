//! Candidate-plan enumeration: the configurations a cost-mode epoch chooses
//! between, each scored with a predicted next-epoch cost and a calibrated
//! swap price.
//!
//! Three families of change are considered, per the unified cost model the
//! roadmap asked for (boundaries *and* width in one currency):
//!
//! * **boundary moves at the current width** — re-fit the equal-mass
//!   partition to the epoch's key CDF;
//! * **width changes at frozen boundaries** — grow or shrink the pool while
//!   keeping the boundary *shape* pinned to the current partition's
//!   reference distribution (a pure sizing move: the new partition is fit
//!   to the reference CDF, not to the fresh epoch);
//! * **joint changes** — new width *and* boundaries re-fit to the epoch CDF
//!   in one swap (one publish, one resize — cheaper than doing the two
//!   separately).

use crate::cdf::PiecewiseCdf;
use crate::drift::imbalance_under;
use crate::partition::KeyPartition;

use super::calibrate::SwapCostCalibrator;
use super::model::{CostModel, EpochObservation};

/// Which family of change a candidate belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanKind {
    /// Boundary move at the current width (re-fit to the epoch CDF).
    Boundaries,
    /// Width change with boundaries frozen to the current reference
    /// distribution.
    Width,
    /// Width change and boundary re-fit in one swap.
    Joint,
}

impl std::fmt::Display for PlanKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PlanKind::Boundaries => "boundaries",
            PlanKind::Width => "width",
            PlanKind::Joint => "joint",
        })
    }
}

/// One scored candidate configuration.
#[derive(Debug, Clone)]
pub struct CandidatePlan {
    /// Family of change.
    pub kind: PlanKind,
    /// Worker count the plan routes to.
    pub width: usize,
    /// The partition the plan would publish.
    pub partition: KeyPartition,
    /// Projected max-over-mean imbalance under the epoch CDF.
    pub predicted_imbalance: f64,
    /// Predicted cost of the next epoch under this plan (task-equivalents).
    pub predicted_cost: f64,
    /// One-time cost of swapping to this plan (task-equivalents): the
    /// calibrated publish/rebucket/spawn-retire seconds at the observed
    /// service rate, plus the residual backlog a shrink strands on retiring
    /// workers.
    pub swap_cost: f64,
}

/// Inputs to one round of plan enumeration.
pub struct PlanContext<'a> {
    /// CDF estimated from this epoch's key histogram (abort-weighted, so
    /// contended quantile buckets already pull boundaries toward narrower
    /// hot ranges).
    pub epoch_cdf: &'a PiecewiseCdf,
    /// CDF behind the *current* partition, when available — the frozen
    /// boundary shape pure-width plans are fit to.
    pub reference_cdf: Option<&'a PiecewiseCdf>,
    /// The partition currently routing.
    pub current: &'a KeyPartition,
    /// Smallest width the pool may shrink to.
    pub min_workers: usize,
    /// Largest width the pool may grow to.
    pub max_workers: usize,
    /// The epoch's observations.
    pub observation: &'a EpochObservation,
}

/// Fraction of the epoch's per-range abort mass that falls in ranges an
/// interior partition boundary cuts through (0 when no aborts were
/// observed). A cut range's conflicting keys execute on two workers
/// concurrently; a co-located range serializes them.
pub fn cut_abort_fraction(partition: &KeyPartition, ranges: &[(u64, u64, u64)]) -> f64 {
    let total: u64 = ranges.iter().map(|&(_, _, aborts)| aborts).sum();
    if total == 0 {
        return 0.0;
    }
    let cut: u64 = ranges
        .iter()
        .filter(|&&(lo, hi, _)| {
            partition
                .boundaries()
                .iter()
                .any(|&boundary| boundary > lo && boundary <= hi)
        })
        .map(|&(_, _, aborts)| aborts)
        .sum();
    cut as f64 / total as f64
}

/// Convert a calibrated swap duration into task-equivalents and add the
/// shrink-residual price: every task queued on a slot the plan retires will
/// be drained by a retiring worker or adopted by a survivor — one extra
/// hand-off each.
fn swap_cost_tasks(calibrator: &SwapCostCalibrator, ctx: &PlanContext<'_>, width: usize) -> f64 {
    let current = ctx.current.workers();
    let delta = current.abs_diff(width);
    let base = calibrator.swap_seconds(delta) * ctx.observation.service_rate();
    let residual: usize = if width < current {
        ctx.observation
            .queue_depths
            .iter()
            .skip(width)
            .take(current - width)
            .sum()
    } else {
        0
    };
    base + residual as f64
}

/// Score one candidate partition.
fn score(
    kind: PlanKind,
    partition: KeyPartition,
    ctx: &PlanContext<'_>,
    model: &CostModel,
    calibrator: &SwapCostCalibrator,
    current_cut: f64,
) -> CandidatePlan {
    let width = partition.workers();
    let imbalance = imbalance_under(&partition, ctx.epoch_cdf);
    let cut = cut_abort_fraction(&partition, &ctx.observation.abort_ranges);
    let predicted_cost = model.epoch_cost(
        ctx.observation,
        imbalance,
        width,
        cut,
        ctx.current.workers(),
        current_cut,
    );
    let swap_cost = swap_cost_tasks(calibrator, ctx, width);
    CandidatePlan {
        kind,
        width,
        partition,
        predicted_imbalance: imbalance,
        predicted_cost,
        swap_cost,
    }
}

/// Cost of running the next epoch on the *current* configuration — the
/// keep-baseline every plan's gain is measured against, and (scored against
/// the epoch that actually materialized) the realized cost the policy's
/// prediction feedback consumes.
pub fn keep_cost(ctx: &PlanContext<'_>, model: &CostModel) -> f64 {
    let active = ctx.current.workers();
    let obs = ctx.observation;
    let current_cut = cut_abort_fraction(ctx.current, &obs.abort_ranges);
    let current_imbalance = imbalance_under(ctx.current, ctx.epoch_cdf);
    model.epoch_cost(
        obs,
        current_imbalance,
        active,
        current_cut,
        active,
        current_cut,
    )
}

/// Enumerate and score the candidate plans for this epoch, returning the
/// keep-baseline cost (the current configuration run for another epoch)
/// alongside the candidates.
pub fn enumerate(
    ctx: &PlanContext<'_>,
    model: &CostModel,
    calibrator: &SwapCostCalibrator,
) -> (f64, Vec<CandidatePlan>) {
    let active = ctx.current.workers();
    let obs = ctx.observation;
    let current_cut = cut_abort_fraction(ctx.current, &obs.abort_ranges);
    let keep_cost = keep_cost(ctx, model);

    let mut plans = Vec::with_capacity(5);
    // Boundary move at the current width.
    plans.push(score(
        PlanKind::Boundaries,
        KeyPartition::from_cdf(ctx.epoch_cdf, active),
        ctx,
        model,
        calibrator,
        current_cut,
    ));

    // Width targets: double into a burst, shed down to the busy share —
    // the same moves the threshold controller makes, now priced instead of
    // confirmed.
    let mut widths = Vec::with_capacity(2);
    let grow = (active * 2).min(ctx.max_workers);
    if grow > active {
        widths.push(grow);
    }
    if active > ctx.min_workers {
        let busy = ((1.0 - obs.idle_fraction) * active as f64).ceil() as usize;
        widths.push(busy.clamp(ctx.min_workers, active - 1));
    }
    for width in widths {
        if let Some(reference) = ctx.reference_cdf {
            plans.push(score(
                PlanKind::Width,
                KeyPartition::from_cdf(reference, width),
                ctx,
                model,
                calibrator,
                current_cut,
            ));
        }
        plans.push(score(
            PlanKind::Joint,
            KeyPartition::from_cdf(ctx.epoch_cdf, width),
            ctx,
            model,
            calibrator,
            current_cut,
        ));
    }
    (keep_cost, plans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::Histogram;
    use crate::key::KeyBounds;

    fn skewed_cdf() -> PiecewiseCdf {
        // All mass in the low tenth of the space.
        let hist = Histogram::from_samples(
            KeyBounds::new(0, 999),
            100,
            &(0..2_000u64).map(|i| i % 100).collect::<Vec<_>>(),
        );
        PiecewiseCdf::from_histogram(&hist)
    }

    fn observation() -> EpochObservation {
        EpochObservation {
            tasks: 2_000,
            executed: 2_000,
            epoch_seconds: 0.1,
            commits: 2_000,
            aborts: 0,
            abort_ranges: Vec::new(),
            active: 4,
            backlog: 0,
            queue_depths: vec![0; 4],
            idle_fraction: 0.0,
            persistence: 1.0,
        }
    }

    #[test]
    fn cut_fraction_counts_only_split_ranges() {
        let partition = KeyPartition::equal_width(KeyBounds::new(0, 99), 2); // boundary at 50
        let ranges = vec![(0u64, 39u64, 60u64), (40, 59, 30), (60, 99, 10)];
        // Only the middle range straddles the boundary.
        let cut = cut_abort_fraction(&partition, &ranges);
        assert!((cut - 0.3).abs() < 1e-12, "{cut}");
        assert_eq!(cut_abort_fraction(&partition, &[]), 0.0);
    }

    #[test]
    fn boundary_plan_beats_a_mismatched_partition() {
        let model = CostModel::default();
        let calibrator = SwapCostCalibrator::new(1.0, 1);
        let cdf = skewed_cdf();
        let current = KeyPartition::equal_width(KeyBounds::new(0, 999), 4);
        let obs = observation();
        let ctx = PlanContext {
            epoch_cdf: &cdf,
            reference_cdf: None,
            current: &current,
            min_workers: 4,
            max_workers: 4,
            observation: &obs,
        };
        let (keep_cost, plans) = enumerate(&ctx, &model, &calibrator);
        assert_eq!(plans.len(), 1, "fixed width: boundary plan only");
        let plan = &plans[0];
        assert_eq!(plan.kind, PlanKind::Boundaries);
        assert_eq!(plan.width, 4);
        assert!(
            plan.predicted_imbalance < 1.2,
            "re-fit plan is balanced: {plan:?}"
        );
        assert!(
            keep_cost > plan.predicted_cost + 1_000.0,
            "the mismatched partition must price high: keep {keep_cost}, plan {}",
            plan.predicted_cost
        );
    }

    #[test]
    fn elastic_range_adds_width_and_joint_plans() {
        let model = CostModel::default();
        let calibrator = SwapCostCalibrator::new(1.0, 1);
        let cdf = skewed_cdf();
        let reference = skewed_cdf();
        let current = KeyPartition::from_cdf(&reference, 4);
        let mut obs = observation();
        obs.idle_fraction = 0.8;
        let ctx = PlanContext {
            epoch_cdf: &cdf,
            reference_cdf: Some(&reference),
            current: &current,
            min_workers: 1,
            max_workers: 8,
            observation: &obs,
        };
        let (_, plans) = enumerate(&ctx, &model, &calibrator);
        // Boundaries + (grow, shrink) x (Width, Joint).
        assert_eq!(plans.len(), 5, "{plans:?}");
        assert!(plans
            .iter()
            .any(|p| p.kind == PlanKind::Width && p.width == 8));
        assert!(plans
            .iter()
            .any(|p| p.kind == PlanKind::Joint && p.width < 4));
        for plan in &plans {
            assert!(plan.width >= 1 && plan.width <= 8);
            assert!(plan.swap_cost >= 0.0);
        }
    }

    #[test]
    fn shrink_swap_cost_prices_the_residual_backlog() {
        let mut calibrator = SwapCostCalibrator::new(1.0, 1);
        calibrator.observe_publish(1.0e-4);
        let cdf = skewed_cdf();
        let current = KeyPartition::from_cdf(&cdf, 4);
        let mut obs = observation();
        obs.queue_depths = vec![10, 10, 25, 40];
        obs.idle_fraction = 0.9;
        let ctx = PlanContext {
            epoch_cdf: &cdf,
            reference_cdf: None,
            current: &current,
            min_workers: 1,
            max_workers: 4,
            observation: &obs,
        };
        let (_, plans) = enumerate(&ctx, &CostModel::default(), &calibrator);
        let shrink = plans
            .iter()
            .find(|p| p.width == 1)
            .expect("a 90%-idle pool proposes shrinking to the busy share");
        // Residual on slots 1..4 = 10 + 25 + 40 = 75 tasks, plus the timed
        // publish cost (1e-4 s x 20k tasks/s = 2 tasks).
        assert!(
            shrink.swap_cost >= 75.0 && shrink.swap_cost < 85.0,
            "{shrink:?}"
        );
    }
}
