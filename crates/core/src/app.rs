use gpu_mem::DevicePtr;
use gpu_sim::{KernelError, SharedBuf, TeamCtx};
use std::collections::BTreeMap;

/// Where the loader placed one module global for this team, following the
/// compiled image's placement decision.
#[derive(Debug, Clone, Copy)]
pub enum GlobalSlot {
    /// One copy in device-global memory, **shared by every instance** — the
    /// §3.3 isolation hazard when mutable.
    Device(DevicePtr),
    /// A per-team copy in shared memory (the §3.3 transform applied).
    Shared(SharedBuf<u8>),
}

/// Per-instance execution context handed to the application's
/// (renamed) `__user_main`.
pub struct AppContext {
    /// This instance's command-line arguments; `argv[0]` is the program
    /// name, the rest comes from the instance's argument-file line.
    pub argv: Vec<String>,
    /// Module globals, placed per the compiled image.
    pub globals: BTreeMap<String, GlobalSlot>,
    /// Instance id (equals the team id under the default mapping).
    pub instance: u32,
    /// Total instances in the ensemble.
    pub num_instances: u32,
}

impl AppContext {
    /// Look up a global that must exist (the compiler verified the module).
    pub fn global(&self, name: &str) -> Result<GlobalSlot, KernelError> {
        self.globals.get(name).copied().ok_or_else(|| {
            KernelError::App(format!("module has no global @{name} (was it DCE'd?)"))
        })
    }

    /// `argc`, C-style.
    pub fn argc(&self) -> i32 {
        self.argv.len() as i32
    }
}

/// The application's canonicalized entry point: the device-side
/// `__user_main(int argc, char **argv)` as a Rust function over the team
/// context.
pub type AppMainFn = fn(&mut TeamCtx<'_>, &AppContext) -> Result<i32, KernelError>;

/// A legacy CPU application, packaged for direct GPU compilation.
///
/// `module_text` is the symbol-level IR the compiler pipeline transforms
/// (the stand-in for the application's LLVM bitcode); `main` is the
/// executable behaviour the simulator runs. The loader keeps the two in
/// sync: RPC services not stubbed in the compiled module are unreachable at
/// run time, and globals live where the pipeline placed them.
#[derive(Clone)]
pub struct HostApp {
    pub name: &'static str,
    pub module_text: String,
    pub main: AppMainFn,
    /// Paper-scale footprint divided by materialized footprint, derived
    /// from the parsed arguments (see `gpu-sim`'s L2 model). `None` = 1.
    pub footprint_scale: Option<fn(&[String]) -> f64>,
}

impl HostApp {
    pub fn new(name: &'static str, module_text: impl Into<String>, main: AppMainFn) -> Self {
        Self {
            name,
            module_text: module_text.into(),
            main,
            footprint_scale: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_lookup_and_argc() {
        let mut globals = BTreeMap::new();
        globals.insert("g".to_string(), GlobalSlot::Device(DevicePtr(0x7000)));
        let cx = AppContext {
            argv: vec!["prog".into(), "-n".into(), "5".into()],
            globals,
            instance: 2,
            num_instances: 4,
        };
        assert_eq!(cx.argc(), 3);
        assert!(matches!(cx.global("g"), Ok(GlobalSlot::Device(_))));
        assert!(cx.global("missing").is_err());
    }
}
