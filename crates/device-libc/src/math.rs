//! Math shims.
//!
//! Functionally these delegate to the host's `f64` operations (bit-exact
//! with device libm for the benchmark's purposes); their value is charging
//! *consistent instruction costs* to the simulator so compute-bound and
//! memory-bound benchmarks keep their relative arithmetic intensity.

use gpu_sim::LaneCtx;

/// Instruction cost of each transcendental on the modeled device
/// (multi-instruction SFU sequences on real hardware).
mod cost {
    pub const SQRT: f64 = 8.0;
    pub const DIV: f64 = 8.0;
    pub const EXP: f64 = 16.0;
    pub const LOG: f64 = 16.0;
    pub const POW: f64 = 32.0;
    pub const TRIG: f64 = 16.0;
    pub const FMA: f64 = 1.0;
}

pub fn dl_sqrt(lane: &mut LaneCtx<'_, '_>, x: f64) -> f64 {
    lane.work(cost::SQRT);
    x.sqrt()
}

pub fn dl_div(lane: &mut LaneCtx<'_, '_>, a: f64, b: f64) -> f64 {
    lane.work(cost::DIV);
    a / b
}

pub fn dl_exp(lane: &mut LaneCtx<'_, '_>, x: f64) -> f64 {
    lane.work(cost::EXP);
    x.exp()
}

pub fn dl_log(lane: &mut LaneCtx<'_, '_>, x: f64) -> f64 {
    lane.work(cost::LOG);
    x.ln()
}

pub fn dl_pow(lane: &mut LaneCtx<'_, '_>, x: f64, y: f64) -> f64 {
    lane.work(cost::POW);
    x.powf(y)
}

pub fn dl_sin(lane: &mut LaneCtx<'_, '_>, x: f64) -> f64 {
    lane.work(cost::TRIG);
    x.sin()
}

pub fn dl_cos(lane: &mut LaneCtx<'_, '_>, x: f64) -> f64 {
    lane.work(cost::TRIG);
    x.cos()
}

pub fn dl_fabs(lane: &mut LaneCtx<'_, '_>, x: f64) -> f64 {
    lane.work(cost::FMA);
    x.abs()
}

/// Fused multiply-add: `a * b + c`.
pub fn dl_fma(lane: &mut LaneCtx<'_, '_>, a: f64, b: f64, c: f64) -> f64 {
    lane.work(cost::FMA);
    a.mul_add(b, c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_mem::DeviceMemory;
    use gpu_sim::{KernelError, TeamCtx};

    #[test]
    fn values_match_std_and_cost_accrues() {
        let mut mem = DeviceMemory::new(1 << 20);
        let mut ctx = TeamCtx::new(&mut mem, 0, 1, 32, 48 << 10);
        ctx.serial("math", |lane| {
            assert_eq!(dl_sqrt(lane, 9.0), 3.0);
            assert!((dl_exp(lane, 1.0) - std::f64::consts::E).abs() < 1e-12);
            assert!((dl_log(lane, std::f64::consts::E) - 1.0).abs() < 1e-12);
            assert_eq!(dl_pow(lane, 2.0, 10.0), 1024.0);
            assert!((dl_sin(lane, 0.0)).abs() < 1e-12);
            assert_eq!(dl_cos(lane, 0.0), 1.0);
            assert_eq!(dl_fabs(lane, -4.0), 4.0);
            assert_eq!(dl_fma(lane, 2.0, 3.0, 1.0), 7.0);
            assert_eq!(dl_div(lane, 10.0, 4.0), 2.5);
            Ok::<(), KernelError>(())
        })
        .unwrap();
        let trace = ctx.finish();
        // All that math must have charged more than the prologue alone.
        assert!(trace.total_insts() > 120.0 + 90.0);
    }
}
