//! Deterministic fault plans.
//!
//! A [`FaultPlan`] is a declarative, JSON-serializable description of the
//! faults to inject into an ensemble run: which instance, on which
//! recovery attempt, and what goes wrong. The plan is *pure data* — the
//! same plan against the same workload always injects the same faults at
//! the same points, so failing runs replay exactly (the whole point of
//! testing recovery inside a deterministic simulator).

use gpu_sim::InjectedTeamFault;
use host_rpc::{Request, RpcFault, RpcFaultHook};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// What goes wrong.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The matched team traps before the application body runs.
    Trap { message: String },
    /// The matched team traps with a device out-of-memory — but only
    /// while at least `min_concurrent` instances share the kernel.
    /// Models the paper's Page-Rank memory wall as a *recoverable*
    /// event: once the executor halves the batch below the
    /// threshold, the instances fit and complete.
    DeviceOom {
        min_concurrent: u32,
        requested_bytes: u64,
    },
    /// The matched team hangs for `stall_cycles` extra device cycles
    /// after its real work — watchdog bait.
    Hang { stall_cycles: f64 },
    /// The matched instance's RPC round trips fail (typed
    /// `Response::Err`, no host side effects) starting with its
    /// `after_calls`-th call of the launch.
    RpcFail { after_calls: u64 },
    /// Same trigger, but the reply wire bytes are corrupted instead —
    /// exercises the device-side decode hardening.
    RpcCorrupt { after_calls: u64 },
}

/// One fault: kind plus instance/attempt filters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Global instance id to target; `None` targets every instance.
    pub instance: Option<u32>,
    /// Recovery attempt to fire on (0 = first launch); `None` fires on
    /// every attempt, which makes the fault unrecoverable by retry.
    pub attempt: Option<u32>,
    pub kind: FaultKind,
}

impl FaultSpec {
    fn matches(&self, instance: u32, attempt: u32) -> bool {
        self.instance.map(|i| i == instance).unwrap_or(true)
            && self.attempt.map(|a| a == attempt).unwrap_or(true)
    }
}

/// A whole simulated device dying: from recovery round `at_attempt` on,
/// the device is gone — instances placed there fail that round and must
/// re-shard onto the survivors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceDeath {
    /// Fleet device index to kill.
    pub device: u32,
    /// Recovery attempt at which the device dies (0 = first launch).
    pub at_attempt: u32,
}

/// A seeded, replayable set of faults for one ensemble run.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed the plan was generated from (bookkeeping; constructors that
    /// scatter faults record it here so a plan file is self-describing).
    pub seed: u64,
    pub faults: Vec<FaultSpec>,
    /// Whole-device deaths, honoured only by the sharded resilient
    /// driver (single-device drivers have no fleet to re-shard over).
    /// `Option` so plan files written before multi-device support still
    /// parse.
    pub device_deaths: Option<Vec<DeviceDeath>>,
}

/// splitmix64 — tiny, dependency-free, full-period generator; plenty for
/// scattering faults reproducibly (and for the recovery driver's seeded
/// backoff jitter, which shares the generator so one seed scheme covers
/// the whole crate).
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Parse a plan from its JSON form (the `--faults <plan.json>` file).
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| format!("bad fault plan: {e}"))
    }

    /// Serialize for a plan file.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("fault plan serializes")
    }

    /// Scatter `count` first-attempt traps over distinct pseudo-random
    /// instances of `0..instances`. Same seed → same plan.
    pub fn scatter_traps(seed: u64, instances: u32, count: u32) -> Self {
        let mut ids: Vec<u32> = (0..instances).collect();
        let mut state = seed;
        // Partial Fisher–Yates: the first `count` slots are the picks.
        let count = count.min(instances) as usize;
        for i in 0..count {
            let j = i + (splitmix64(&mut state) as usize) % (ids.len() - i);
            ids.swap(i, j);
        }
        let faults = ids[..count]
            .iter()
            .map(|&i| FaultSpec {
                instance: Some(i),
                attempt: Some(0),
                kind: FaultKind::Trap {
                    message: format!("scattered fault on instance {i}"),
                },
            })
            .collect();
        Self {
            seed,
            faults,
            device_deaths: None,
        }
    }

    /// Team-level fault for `instance` on `attempt`, given that
    /// `concurrent` instances share the kernel. First matching spec wins;
    /// RPC faults are handled by [`FaultPlan::rpc_hook`], not here.
    pub fn fault_for(
        &self,
        instance: u32,
        attempt: u32,
        concurrent: u32,
    ) -> Option<InjectedTeamFault> {
        self.faults
            .iter()
            .filter(|s| s.matches(instance, attempt))
            .find_map(|s| match &s.kind {
                FaultKind::Trap { message } => Some(InjectedTeamFault::Trap(message.clone())),
                FaultKind::DeviceOom {
                    min_concurrent,
                    requested_bytes,
                } if concurrent >= *min_concurrent => Some(InjectedTeamFault::DeviceOom {
                    requested: *requested_bytes,
                }),
                FaultKind::DeviceOom { .. } => None,
                FaultKind::Hang { stall_cycles } => Some(InjectedTeamFault::Hang {
                    stall_cycles: *stall_cycles,
                }),
                FaultKind::RpcFail { .. } | FaultKind::RpcCorrupt { .. } => None,
            })
    }

    /// Whether `device` dies exactly at recovery round `attempt` — the
    /// round where its placed instances fail and re-shard.
    pub fn device_dies_at(&self, device: u32, attempt: u32) -> bool {
        self.device_deaths
            .as_deref()
            .unwrap_or_default()
            .iter()
            .any(|d| d.device == device && d.at_attempt == attempt)
    }

    /// Whether `device` is already dead *before* round `attempt` starts
    /// (and must therefore be excluded from placement).
    pub fn device_dead_before(&self, device: u32, attempt: u32) -> bool {
        self.device_deaths
            .as_deref()
            .unwrap_or_default()
            .iter()
            .any(|d| d.device == device && d.at_attempt < attempt)
    }

    /// Server-side RPC interceptor for one launch of `attempt`, where
    /// local instance `l` of the kernel is global instance `globals[l]`.
    /// `None` when no RPC fault applies to this attempt — the launch then
    /// uses the exact no-interceptor path.
    pub fn rpc_hook(&self, attempt: u32, globals: &[u32]) -> Option<RpcFaultHook> {
        // (global-instance filter, fire threshold, corrupt?) per live spec.
        let specs: Vec<(Option<u32>, u64, bool)> = self
            .faults
            .iter()
            .filter(|s| s.attempt.map(|a| a == attempt).unwrap_or(true))
            .filter_map(|s| match s.kind {
                FaultKind::RpcFail { after_calls } => Some((s.instance, after_calls, false)),
                FaultKind::RpcCorrupt { after_calls } => Some((s.instance, after_calls, true)),
                _ => None,
            })
            .collect();
        if specs.is_empty() {
            return None;
        }
        let globals = globals.to_vec();
        let mut calls: HashMap<u32, u64> = HashMap::new();
        Some(Box::new(move |req: &Request| {
            let local = instance_of(req);
            let global = *globals.get(local as usize)?;
            let k = calls.entry(local).or_insert(0);
            let call_index = *k;
            *k += 1;
            for &(filter, after, corrupt) in &specs {
                let hit = filter.map(|i| i == global).unwrap_or(true);
                if hit && call_index >= after {
                    return Some(if corrupt {
                        RpcFault::Corrupt
                    } else {
                        RpcFault::Fail(format!("injected RPC failure for instance {global}"))
                    });
                }
            }
            None
        }))
    }
}

/// The issuing instance of a request (every variant carries one).
fn instance_of(req: &Request) -> u32 {
    match req {
        Request::Stdout { instance, .. }
        | Request::Stderr { instance, .. }
        | Request::FOpen { instance, .. }
        | Request::FClose { instance, .. }
        | Request::FRead { instance, .. }
        | Request::FWrite { instance, .. }
        | Request::FSeek { instance, .. }
        | Request::Clock { instance }
        | Request::Exit { instance, .. } => *instance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trip() {
        let plan = FaultPlan {
            device_deaths: None,
            seed: 7,
            faults: vec![
                FaultSpec {
                    instance: Some(2),
                    attempt: Some(0),
                    kind: FaultKind::Trap {
                        message: "boom".into(),
                    },
                },
                FaultSpec {
                    instance: None,
                    attempt: None,
                    kind: FaultKind::DeviceOom {
                        min_concurrent: 5,
                        requested_bytes: 1 << 30,
                    },
                },
                FaultSpec {
                    instance: Some(0),
                    attempt: Some(1),
                    kind: FaultKind::RpcCorrupt { after_calls: 3 },
                },
            ],
        };
        let back = FaultPlan::from_json(&plan.to_json()).unwrap();
        assert_eq!(back, plan);
        assert!(FaultPlan::from_json("{nope").is_err());
    }

    #[test]
    fn scatter_is_deterministic_and_distinct() {
        let a = FaultPlan::scatter_traps(42, 16, 5);
        let b = FaultPlan::scatter_traps(42, 16, 5);
        assert_eq!(a, b);
        assert_eq!(a.faults.len(), 5);
        let mut ids: Vec<u32> = a.faults.iter().map(|f| f.instance.unwrap()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 5, "instances must be distinct");
        assert!(ids.iter().all(|&i| i < 16));
        // A different seed scatters differently (16 choose 5 is large
        // enough that a collision would be a smoking gun).
        let c = FaultPlan::scatter_traps(43, 16, 5);
        assert_ne!(a, c);
        // Over-asking clamps to the population.
        assert_eq!(FaultPlan::scatter_traps(1, 3, 9).faults.len(), 3);
    }

    #[test]
    fn fault_for_applies_filters_and_oom_threshold() {
        let plan = FaultPlan {
            device_deaths: None,
            seed: 0,
            faults: vec![
                FaultSpec {
                    instance: Some(1),
                    attempt: Some(0),
                    kind: FaultKind::Trap {
                        message: "t".into(),
                    },
                },
                FaultSpec {
                    instance: None,
                    attempt: None,
                    kind: FaultKind::DeviceOom {
                        min_concurrent: 5,
                        requested_bytes: 64,
                    },
                },
            ],
        };
        assert_eq!(
            plan.fault_for(1, 0, 1),
            Some(InjectedTeamFault::Trap("t".into()))
        );
        // Wrong instance or attempt: the trap does not fire.
        assert_eq!(plan.fault_for(2, 0, 1), None);
        assert_eq!(plan.fault_for(1, 1, 1), None);
        // The OOM fires only at or above the concurrency threshold.
        assert_eq!(
            plan.fault_for(3, 2, 8),
            Some(InjectedTeamFault::DeviceOom { requested: 64 })
        );
        assert_eq!(plan.fault_for(3, 2, 4), None);
    }

    #[test]
    fn rpc_hook_counts_calls_per_instance() {
        let plan = FaultPlan {
            device_deaths: None,
            seed: 0,
            faults: vec![FaultSpec {
                instance: Some(7),
                attempt: Some(0),
                kind: FaultKind::RpcFail { after_calls: 2 },
            }],
        };
        // Local instance 1 is global instance 7 in this launch.
        let mut hook = plan.rpc_hook(0, &[4, 7]).unwrap();
        let req = |instance| Request::Clock { instance };
        // First two calls pass, the third fails; other instances never do.
        assert_eq!(hook(&req(1)), None);
        assert_eq!(hook(&req(0)), None);
        assert_eq!(hook(&req(1)), None);
        assert!(matches!(hook(&req(1)), Some(RpcFault::Fail(_))));
        assert_eq!(hook(&req(0)), None);
        // The fault targets attempt 0 only; no hook for attempt 1.
        assert!(plan.rpc_hook(1, &[4, 7]).is_none());
        assert!(FaultPlan::default().rpc_hook(0, &[0]).is_none());
    }
}
