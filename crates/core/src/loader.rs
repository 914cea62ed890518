use crate::app::{build_globals, AppContext, HostApp};
use dgc_compiler::{compile, CompileError, CompiledImage, CompilerOptions};
use dgc_ir::{Attr, Function, Module, ParseError};
use gpu_mem::{AllocError, Backing, DevicePtr, TransferDirection};
use gpu_sim::{Gpu, KernelSpec, SimError, TeamOutcome};
use host_rpc::{HostServices, RpcHost, RpcStats};
use std::collections::BTreeMap;

/// Heap-region tag used for module globals (shared by all instances, so it
/// must not collide with instance ids).
pub(crate) const GLOBALS_TAG: u32 = u32::MAX;

/// Loader failures.
#[derive(Debug)]
pub enum LoaderError {
    /// The application's module text did not parse.
    ModuleParse(ParseError),
    /// The compiler pipeline rejected the module.
    Compile(CompileError),
    /// Kernel launch failed (bad configuration).
    Launch(SimError),
    /// Device allocation for module globals failed.
    Globals(AllocError),
}

impl std::fmt::Display for LoaderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoaderError::ModuleParse(e) => write!(f, "module parse error: {e}"),
            LoaderError::Compile(e) => write!(f, "compilation failed: {e}"),
            LoaderError::Launch(e) => write!(f, "{e}"),
            LoaderError::Globals(e) => write!(f, "global allocation failed: {e}"),
        }
    }
}

impl std::error::Error for LoaderError {}

/// Result of running one application instance through the plain loader.
#[derive(Debug)]
pub struct AppRunResult {
    /// `__user_main`'s return value (or the `exit()` code if the app called
    /// it, which takes precedence like on a real host).
    pub exit_code: Option<i32>,
    /// Set if the instance trapped instead of returning.
    pub trap: Option<String>,
    pub stdout: String,
    pub stderr: String,
    pub report: gpu_sim::SimReport,
    /// Host↔device transfer time (argv mapping, result copy-back).
    pub transfer_seconds: f64,
    pub rpc_stats: RpcStats,
    /// Segment traces when [`Loader::keep_traces`] was set.
    pub block_traces: Option<Vec<gpu_sim::BlockTrace>>,
    /// Stall-cycle attribution when [`Loader::collect_stalls`] was set.
    pub stalls: Option<gpu_sim::StallAttribution>,
}

/// The original direct-GPU-compilation loader \[26\]: compiles the whole
/// application as device code and runs it as a **single team**.
pub struct Loader {
    pub compiler: CompilerOptions,
    /// Threads the single team may use (the `-t` of the enhanced loader,
    /// defaulted to the hardware block maximum as in \[26\]).
    pub thread_limit: u32,
    /// Keep the kernel's segment traces in the result for per-phase
    /// profiling.
    pub keep_traces: bool,
    /// Attribute every simulated cycle to a stall bucket
    /// ([`AppRunResult::stalls`]); pure bookkeeping, never changes timing.
    pub collect_stalls: bool,
}

impl Default for Loader {
    fn default() -> Self {
        Self {
            compiler: CompilerOptions::default(),
            thread_limit: 1024,
            keep_traces: false,
            collect_stalls: false,
        }
    }
}

impl Loader {
    /// Parse and compile the application's module, then splice in the main
    /// wrapper (the new host entry point) exactly as the framework links
    /// it: `main` (wrapper) → maps args → calls `__user_main`.
    pub fn compile_app(&self, app: &HostApp) -> Result<CompiledImage, LoaderError> {
        let module = Module::parse(&app.module_text).map_err(LoaderError::ModuleParse)?;
        let mut image = compile(module, &self.compiler).map_err(LoaderError::Compile)?;
        inject_main_wrapper(&mut image.module);
        Ok(image)
    }

    /// Run `app` once on `gpu` with the given arguments (excluding
    /// `argv[0]`, which the loader provides).
    pub fn run(
        &self,
        gpu: &mut Gpu,
        app: &HostApp,
        args: &[&str],
        services: HostServices,
    ) -> Result<AppRunResult, LoaderError> {
        let image = self.compile_app(app)?;
        let argv: Vec<String> = std::iter::once(app.name.to_string())
            .chain(args.iter().map(|s| s.to_string()))
            .collect();

        // Map program arguments to the device (main-wrapper behaviour).
        let argv_bytes: u64 = argv.iter().map(|a| a.len() as u64 + 1).sum();
        let mut transfer_seconds = gpu
            .transfers
            .record(TransferDirection::HostToDevice, argv_bytes);

        let device_globals = alloc_device_globals(gpu, &image).map_err(LoaderError::Globals)?;

        let mut host = RpcHost::new(services, None, None);
        let footprint = app
            .footprint_scale
            .map(|f| f(&argv))
            .unwrap_or(1.0)
            .max(1.0);

        let mut spec = KernelSpec::new(app.name, 1, self.thread_limit);
        spec.rpc_services = Some(image.rpc_services.iter().copied().collect());
        spec.footprint_multiplier = footprint;
        spec.keep_traces = self.keep_traces;
        spec.collect_stalls = self.collect_stalls;
        let main_fn = app.main;
        let argv_ref = &argv;
        let image_ref = &image;
        let dg_ref = &device_globals;
        let mut hook =
            |_service: u32, payload: &[u8]| host.call_raw(payload).map_err(|e| e.to_string());
        let launch = gpu.launch(&spec, Some(&mut hook), move |team| {
            let globals = build_globals(team, image_ref, dg_ref)?;
            let cx = AppContext {
                argv: argv_ref.clone(),
                globals,
                instance: team.team_id(),
                num_instances: 1,
            };
            main_fn(team, &cx)
        });

        // Tear down device state regardless of launch outcome.
        gpu.mem.free_by_tag(0);
        gpu.mem.free_by_tag(GLOBALS_TAG);
        let services = host.into_services();
        let launch = launch.map_err(LoaderError::Launch)?;

        // map(from: Ret) — copy the return code back.
        transfer_seconds += gpu.transfers.record(TransferDirection::DeviceToHost, 4);

        let (exit_code, trap) = match &launch.team_outcomes[0] {
            TeamOutcome::Return(c) => (Some(services.exit_code_of(0).unwrap_or(*c)), None),
            TeamOutcome::Trap(e) => (services.exit_code_of(0), Some(e.to_string())),
        };
        Ok(AppRunResult {
            exit_code,
            trap,
            stdout: services.stdout_of(0).to_string(),
            stderr: services.stderr_of(0).to_string(),
            report: launch.report,
            transfer_seconds,
            rpc_stats: services.stats(),
            block_traces: launch.block_traces,
            stalls: launch.stalls,
        })
    }
}

/// Insert the loader's main wrapper into a compiled module: the new host
/// entry point that maps arguments and invokes `__user_main` (paper §2.2).
pub(crate) fn inject_main_wrapper(module: &mut Module) {
    if module.function("main").is_some() {
        return;
    }
    module.add_function(
        Function::defined("main", 2)
            .with_callees(&["__user_main"])
            .with_attr(Attr::MainWrapper),
    );
}

/// Allocate device-global/constant module globals once per launch, tagged
/// [`GLOBALS_TAG`].
pub(crate) fn alloc_device_globals(
    gpu: &mut Gpu,
    image: &CompiledImage,
) -> Result<BTreeMap<String, DevicePtr>, AllocError> {
    let mut out = BTreeMap::new();
    for g in &image.module.globals {
        if g.placement == dgc_ir::GlobalPlacement::TeamShared {
            continue;
        }
        let ptr = gpu
            .mem
            .alloc_tagged(g.size, Backing::Materialized, GLOBALS_TAG)?;
        out.insert(g.name.clone(), ptr);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use device_libc::dl_printf;
    use gpu_sim::TeamCtx;

    const MODULE: &str = r#"
module "hello" {
  global @counter size=8 align=8
  func @main arity=2 calls(@printf, @work)
  func @work arity=0 calls(@malloc)
  extern func @printf variadic
  extern func @malloc
}
"#;

    fn hello_main(team: &mut TeamCtx<'_>, cx: &AppContext) -> Result<i32, gpu_sim::KernelError> {
        let argv1 = cx.argv.get(1).cloned().unwrap_or_default();
        team.serial("main", |lane| {
            dl_printf(
                lane,
                "hello from %s arg=%s\n",
                &[cx.argv[0].as_str().into(), argv1.as_str().into()],
            )?;
            Ok(())
        })?;
        Ok(0)
    }

    fn app() -> HostApp {
        HostApp::new("hello", MODULE, hello_main)
    }

    #[test]
    fn plain_loader_runs_single_team() {
        let mut gpu = Gpu::a100();
        let res = Loader::default()
            .run(&mut gpu, &app(), &["-x"], HostServices::default())
            .unwrap();
        assert_eq!(res.exit_code, Some(0));
        assert!(res.trap.is_none());
        assert_eq!(res.stdout, "hello from hello arg=-x\n");
        assert_eq!(res.report.blocks, 1);
        assert!(res.report.sim_time_s > 0.0);
        assert!(res.transfer_seconds > 0.0);
        assert_eq!(res.rpc_stats.stdio_calls, 1);
        // Loader cleaned the device heap.
        assert_eq!(gpu.mem.stats().live_allocations, 0);
    }

    #[test]
    fn loader_collects_stall_attribution_on_request() {
        let mut gpu = Gpu::a100();
        let loader = Loader {
            collect_stalls: true,
            ..Default::default()
        };
        let res = loader
            .run(&mut gpu, &app(), &["-x"], HostServices::default())
            .unwrap();
        let st = res.stalls.as_ref().unwrap();
        assert_eq!(st.kernel.total(), res.report.kernel_cycles);
        assert_eq!(st.blocks.len(), 1);
        // The hello app spends a printf round trip: RPC stall shows up.
        assert!(st.kernel.rpc > 0.0, "{:?}", st.kernel);
        // Off by default.
        let mut gpu = Gpu::a100();
        let res = Loader::default()
            .run(&mut gpu, &app(), &["-x"], HostServices::default())
            .unwrap();
        assert!(res.stalls.is_none());
    }

    #[test]
    fn compile_app_injects_wrapper_and_stubs() {
        let image = Loader::default().compile_app(&app()).unwrap();
        let wrapper = image.module.function("main").unwrap();
        assert!(wrapper.attrs.has(&Attr::MainWrapper));
        assert_eq!(wrapper.callees, vec!["__user_main"]);
        assert!(image.module.function("__rpc_printf").is_some());
        assert!(image.rpc_services.contains(&host_rpc::SERVICE_STDIO));
    }

    #[test]
    fn unparseable_module_reports() {
        let mut a = app();
        a.module_text = "not a module".into();
        let mut gpu = Gpu::a100();
        assert!(matches!(
            Loader::default().run(&mut gpu, &a, &[], HostServices::default()),
            Err(LoaderError::ModuleParse(_))
        ));
    }

    #[test]
    fn rpc_service_without_stub_is_trapped() {
        // An app whose module never calls fopen, but whose code tries to:
        // the compiled image has no FS stub, so the call traps.
        fn sneaky_main(
            team: &mut TeamCtx<'_>,
            _cx: &AppContext,
        ) -> Result<i32, gpu_sim::KernelError> {
            team.serial("main", |lane| {
                device_libc::file::dl_fopen(lane, "f", "r")?;
                Ok(())
            })?;
            Ok(0)
        }
        let a = HostApp::new("sneaky", MODULE, sneaky_main);
        let mut gpu = Gpu::a100();
        let res = Loader::default()
            .run(&mut gpu, &a, &[], HostServices::default())
            .unwrap();
        assert!(res.trap.as_deref().unwrap_or("").contains("no RPC stub"));
    }

    #[test]
    fn explicit_exit_code_wins() {
        fn exit_main(
            team: &mut TeamCtx<'_>,
            _cx: &AppContext,
        ) -> Result<i32, gpu_sim::KernelError> {
            team.serial("main", |lane| device_libc::stdio::dl_exit(lane, 3))?;
            Ok(0)
        }
        const MODULE_EXIT: &str = r#"
module "exiter" {
  func @main arity=2 calls(@exit)
  extern func @exit
}
"#;
        let a = HostApp::new("exiter", MODULE_EXIT, exit_main);
        let mut gpu = Gpu::a100();
        let res = Loader::default()
            .run(&mut gpu, &a, &[], HostServices::default())
            .unwrap();
        assert_eq!(res.exit_code, Some(3));
    }
}
