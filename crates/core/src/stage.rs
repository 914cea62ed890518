//! The staging every launcher shares (paper Fig. 4). The plain loader
//! \[26\] stages one instance, the ensemble loader `N`, and multi-team
//! expansion \[27\] one instance over many teams, through the same steps:
//! compile the module with the main wrapper, map each instance's argv to
//! the device, allocate the module globals, run the teams with the host
//! serving their RPC calls, tear the device state down, copy the return
//! codes back and read each instance's exit status.

use crate::app::{AppContext, GlobalSlot, HostApp};
use crate::ensemble::EnsembleError;
use dgc_compiler::{compile, CompiledImage, CompilerOptions};
use dgc_ir::{Attr, Function, GlobalPlacement, Module};
use gpu_mem::{Backing, DevicePtr, TransferDirection};
use gpu_sim::{Gpu, KernelError, KernelSpec, LaunchResult, SimError, TeamCtx, TeamOutcome};
use host_rpc::{HostServices, RpcHost};
use std::collections::BTreeMap;

/// Heap-region tag used for module globals (shared by all instances, so it
/// must not collide with instance ids).
pub(crate) const GLOBALS_TAG: u32 = u32::MAX;

/// Parse and compile the application's module, then splice in the main
/// wrapper (the new host entry point) exactly as the framework links it:
/// `main` (wrapper) → maps args → calls `__user_main` (paper §2.2).
pub(crate) fn compile_app(
    app: &HostApp,
    compiler: &CompilerOptions,
) -> Result<CompiledImage, EnsembleError> {
    let module = Module::parse(&app.module_text).map_err(EnsembleError::ModuleParse)?;
    let mut image = compile(module, compiler).map_err(EnsembleError::Compile)?;
    if image.module.function("main").is_none() {
        image.module.add_function(
            Function::defined("main", 2)
                .with_callees(&["__user_main"])
                .with_attr(Attr::MainWrapper),
        );
    }
    Ok(image)
}

/// An application staged on a device for one launch: the compiled image,
/// each instance's argv (instance `i` runs as team `i`) and the module
/// globals.
pub(crate) struct Stage<'a> {
    app: &'a HostApp,
    image: CompiledImage,
    argvs: Vec<Vec<String>>,
    /// Bytes and simulated seconds of the argv host-to-device copy.
    pub argv_bytes: u64,
    pub h2d_s: f64,
    globals: BTreeMap<String, DevicePtr>,
}

impl<'a> Stage<'a> {
    /// Give each instance `argv[0]` plus its argument line and map them
    /// all to the device (the StringCache of Fig. 4).
    pub fn map_argv<'l>(
        gpu: &mut Gpu,
        app: &'a HostApp,
        image: CompiledImage,
        lines: impl IntoIterator<Item = &'l [String]>,
    ) -> Self {
        let argvs: Vec<Vec<String>> = lines
            .into_iter()
            .map(|line| {
                std::iter::once(app.name.to_string())
                    .chain(line.iter().cloned())
                    .collect()
            })
            .collect();
        let argv_bytes: u64 = argvs
            .iter()
            .flat_map(|a| a.iter())
            .map(|s| s.len() as u64 + 1)
            .sum();
        let h2d_s = gpu
            .transfers
            .record(TransferDirection::HostToDevice, argv_bytes);
        Self {
            app,
            image,
            argvs,
            argv_bytes,
            h2d_s,
            globals: BTreeMap::new(),
        }
    }

    /// Allocate the device-global and constant module globals once for
    /// the launch, tagged [`GLOBALS_TAG`].
    pub fn alloc_globals(&mut self, gpu: &mut Gpu) -> Result<(), EnsembleError> {
        for g in &self.image.module.globals {
            if g.placement == GlobalPlacement::TeamShared {
                continue;
            }
            let ptr = gpu
                .mem
                .alloc_tagged(g.size, Backing::Materialized, GLOBALS_TAG)
                .map_err(EnsembleError::Globals)?;
            self.globals.insert(g.name.clone(), ptr);
        }
        Ok(())
    }

    pub fn instances(&self) -> u32 {
        self.argvs.len() as u32
    }

    /// The services the image has RPC stubs for.
    pub fn rpc_services(&self) -> Vec<u32> {
        self.image.rpc_services.iter().copied().collect()
    }

    /// Paper-scale footprint over materialized footprint: the largest of
    /// the instances', and at least 1.
    pub fn footprint(&self) -> f64 {
        self.argvs
            .iter()
            .map(|a| self.app.footprint_scale.map(|f| f(a)).unwrap_or(1.0))
            .fold(1.0f64, f64::max)
    }

    /// A kernel of `num_teams` teams of `lanes` threads that reaches only
    /// the image's RPC stubs and models the paper-scale footprint.
    pub fn kernel<'s>(&self, name: &'s str, num_teams: u32, lanes: u32) -> KernelSpec<'s> {
        let mut spec = KernelSpec::new(name, num_teams, lanes);
        spec.rpc_services = Some(self.rpc_services());
        spec.footprint_multiplier = self.footprint();
        spec
    }

    /// Run `spec` on `gpu`, every team entering `main`, with `host`
    /// serving the RPC calls.
    pub fn launch(
        &self,
        gpu: &mut Gpu,
        spec: &KernelSpec<'_>,
        host: &mut RpcHost,
    ) -> Result<LaunchResult, SimError> {
        let mut hook = host_call(host);
        gpu.launch(spec, Some(&mut hook), |team| self.enter_main(team))
    }

    /// One team's body: its view of the globals, then `__user_main` with
    /// the argv of the instance the team runs.
    pub fn enter_main(&self, team: &mut TeamCtx<'_>) -> Result<i32, KernelError> {
        let i = team.team_id();
        let globals = self.team_globals(team)?;
        let cx = AppContext {
            argv: self.argvs[i as usize].clone(),
            globals,
            instance: i,
            num_instances: self.instances(),
        };
        (self.app.main)(team, &cx)
    }

    /// The team's view of the module globals, following the image's
    /// placements: device and constant globals are the ones
    /// [`Stage::alloc_globals`] allocated, shared ones are allocated here,
    /// per team.
    fn team_globals(
        &self,
        team: &mut TeamCtx<'_>,
    ) -> Result<BTreeMap<String, GlobalSlot>, KernelError> {
        let mut slots = BTreeMap::new();
        for g in &self.image.module.globals {
            let slot = match g.placement {
                GlobalPlacement::DeviceGlobal | GlobalPlacement::Constant => {
                    let ptr = self.globals.get(&g.name).copied().ok_or_else(|| {
                        KernelError::App(format!("loader did not allocate global @{}", g.name))
                    })?;
                    GlobalSlot::Device(ptr)
                }
                GlobalPlacement::TeamShared => {
                    GlobalSlot::Shared(team.shared_alloc::<u8>(g.size as usize)?)
                }
            };
            slots.insert(g.name.clone(), slot);
        }
        Ok(slots)
    }

    /// Instance teardown, whatever the launch's outcome: free every
    /// instance heap and the module globals, and take the host's services
    /// back.
    pub fn teardown(&self, gpu: &mut Gpu, host: RpcHost) -> HostServices {
        for i in 0..self.instances() {
            gpu.mem.free_by_tag(i);
        }
        gpu.mem.free_by_tag(GLOBALS_TAG);
        host.into_services()
    }

    /// `map(from: Ret[:NI])`: copy every instance's return code back.
    pub fn copy_back(&self, gpu: &mut Gpu) -> f64 {
        gpu.transfers
            .record(TransferDirection::DeviceToHost, 4 * self.instances() as u64)
    }
}

/// The host-call hook a launch's teams share: `host` serves each call
/// inline, in the order the device issues them.
pub(crate) fn host_call(
    host: &mut RpcHost,
) -> impl FnMut(u32, &[u8]) -> Result<Vec<u8>, String> + '_ {
    move |_service: u32, payload: &[u8]| host.call_raw(payload).map_err(|e| e.to_string())
}

/// Instance `instance`'s exit code and trap. An explicit `exit()` beats
/// `__user_main`'s return value, as on a real host.
pub(crate) fn exit_status<'o>(
    services: &HostServices,
    instance: u32,
    outcome: &'o TeamOutcome,
) -> (Option<i32>, Option<&'o KernelError>) {
    match outcome {
        TeamOutcome::Return(c) => (Some(services.exit_code_of(instance).unwrap_or(*c)), None),
        TeamOutcome::Trap(e) => (services.exit_code_of(instance), Some(e)),
    }
}
