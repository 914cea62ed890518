use crate::app::HostApp;
use crate::ensemble::EnsembleError;
use crate::stage::{self, exit_status, Stage};
use dgc_compiler::{CompiledImage, CompilerOptions};
use gpu_sim::Gpu;
use host_rpc::{HostServices, RpcHost, RpcStats};

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
    /// The kernel's segment traces, for per-phase profiling.
    pub block_traces: Vec<gpu_sim::BlockTrace>,
    /// Stall-cycle attribution of every simulated cycle.
    pub stalls: gpu_sim::StallAttribution,
}

/// The original direct-GPU-compilation loader \[26\]: compiles the whole
/// application as device code and runs it as a **single team** — the
/// ensemble loader's staging with one instance.
pub struct Loader {
    pub compiler: CompilerOptions,
    /// Threads the single team may use (the `-t` of the enhanced loader,
    /// defaulted to the hardware block maximum as in \[26\]).
    pub thread_limit: u32,
}

impl Default for Loader {
    fn default() -> Self {
        Self {
            compiler: CompilerOptions::default(),
            thread_limit: 1024,
        }
    }
}

impl Loader {
    /// Parse and compile the application's module, then splice in the main
    /// wrapper (the new host entry point) exactly as the framework links
    /// it: `main` (wrapper) → maps args → calls `__user_main`.
    pub fn compile_app(&self, app: &HostApp) -> Result<CompiledImage, EnsembleError> {
        stage::compile_app(app, &self.compiler)
    }

    /// Run `app` once on `gpu` with the given arguments (excluding
    /// `argv[0]`, which the loader provides). The kernel is named after
    /// the app.
    pub fn run(
        &self,
        gpu: &mut Gpu,
        app: &HostApp,
        args: &[&str],
        services: HostServices,
    ) -> Result<AppRunResult, EnsembleError> {
        let image = self.compile_app(app)?;
        let line: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut stage = Stage::map_argv(gpu, app, image, [line.as_slice()]);
        stage.alloc_globals(gpu)?;
        let mut host = RpcHost::new(services, None, None);
        let spec = stage.kernel(app.name, 1, self.thread_limit);
        let launch = stage.launch(gpu, &spec, &mut host);
        let services = stage.teardown(gpu, host);
        let launch = launch.map_err(EnsembleError::Launch)?;
        let transfer_seconds = stage.h2d_s + stage.copy_back(gpu);
        let (exit_code, trap) = exit_status(&services, 0, &launch.team_outcomes[0]);
        Ok(AppRunResult {
            exit_code,
            trap: trap.map(|e| e.to_string()),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::AppContext;
    use device_libc::dl_printf;
    use dgc_ir::Attr;
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
    fn loader_attributes_stall_cycles() {
        let mut gpu = Gpu::a100();
        let res = Loader::default()
            .run(&mut gpu, &app(), &["-x"], HostServices::default())
            .unwrap();
        let st = &res.stalls;
        assert_eq!(st.kernel.total(), res.report.kernel_cycles);
        assert_eq!(st.blocks.len(), 1);
        // The hello app spends a printf round trip: RPC stall shows up.
        assert!(st.kernel.rpc > 0.0, "{:?}", st.kernel);
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
            Err(EnsembleError::ModuleParse(_))
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
