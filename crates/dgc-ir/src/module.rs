use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// A symbol-level attribute. The OpenMP-flavoured ones mirror the pragmas
/// of the direct-GPU-compilation scheme; the rest are produced by passes.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Attr {
    /// `#pragma omp declare target` — symbol is mapped to the device.
    DeclareTarget,
    /// `device_type(nohost)` — no host version is emitted.
    NoHost,
    /// Generated host-RPC stub for the given service id.
    RpcStub(u32),
    /// Function body contains this many `parallel` regions.
    ParallelRegions(u32),
    /// Parallel regions are semantically safe for multi-team expansion
    /// (the \[27\] "GPU-first" analysis result).
    OrderIndependentParallel,
    /// Symbol was renamed from this original name.
    RenamedFrom(String),
    /// Marks the loader-provided main wrapper (host entry point).
    MainWrapper,
}

impl std::fmt::Display for Attr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Attr::DeclareTarget => write!(f, "!declare_target"),
            Attr::NoHost => write!(f, "!nohost"),
            Attr::RpcStub(s) => write!(f, "!rpc_stub({s})"),
            Attr::ParallelRegions(n) => write!(f, "!parallel({n})"),
            Attr::OrderIndependentParallel => write!(f, "!order_independent"),
            Attr::RenamedFrom(n) => write!(f, "!renamed_from(\"{n}\")"),
            Attr::MainWrapper => write!(f, "!main_wrapper"),
        }
    }
}

/// An ordered attribute set.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttrSet(BTreeSet<Attr>);

impl AttrSet {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add(&mut self, a: Attr) {
        self.0.insert(a);
    }

    pub fn has(&self, a: &Attr) -> bool {
        self.0.contains(a)
    }

    pub fn remove(&mut self, a: &Attr) -> bool {
        self.0.remove(a)
    }

    pub fn iter(&self) -> impl Iterator<Item = &Attr> {
        self.0.iter()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// True if the symbol carries `declare target device_type(nohost)`.
    pub fn is_nohost_device(&self) -> bool {
        self.has(&Attr::DeclareTarget) && self.has(&Attr::NoHost)
    }

    /// The RPC service id if this is a generated stub.
    pub fn rpc_service(&self) -> Option<u32> {
        self.0.iter().find_map(|a| match a {
            Attr::RpcStub(s) => Some(*s),
            _ => None,
        })
    }

    /// Number of parallel regions recorded, 0 if none.
    pub fn parallel_regions(&self) -> u32 {
        self.0
            .iter()
            .find_map(|a| match a {
                Attr::ParallelRegions(n) => Some(*n),
                _ => None,
            })
            .unwrap_or(0)
    }
}

/// A function symbol.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Function {
    pub name: String,
    /// Number of formal parameters (before canonicalization `main` may
    /// have 0, 2 or 3).
    pub arity: u8,
    pub variadic: bool,
    /// Defined in this module (vs. an external declaration).
    pub defined: bool,
    /// Names of directly-called functions.
    pub callees: Vec<String>,
    pub attrs: AttrSet,
}

impl Function {
    pub fn defined(name: &str, arity: u8) -> Self {
        Self {
            name: name.to_string(),
            arity,
            variadic: false,
            defined: true,
            callees: Vec::new(),
            attrs: AttrSet::new(),
        }
    }

    pub fn external(name: &str) -> Self {
        Self {
            name: name.to_string(),
            arity: 0,
            variadic: false,
            defined: false,
            callees: Vec::new(),
            attrs: AttrSet::new(),
        }
    }

    pub fn with_callees(mut self, callees: &[&str]) -> Self {
        self.callees = callees.iter().map(|s| s.to_string()).collect();
        self
    }

    pub fn with_attr(mut self, a: Attr) -> Self {
        self.attrs.add(a);
        self
    }

    pub fn with_variadic(mut self) -> Self {
        self.variadic = true;
        self
    }
}

/// Where a pass decided a global lives on the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum GlobalPlacement {
    /// Device global memory — shared by *all* teams; under ensemble
    /// execution this is the §3.3 isolation hazard.
    #[default]
    DeviceGlobal,
    /// Team-local shared memory (the §3.3 proposed transform).
    TeamShared,
    /// Constant memory (immutable; safe to share across instances).
    Constant,
}

impl std::fmt::Display for GlobalPlacement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GlobalPlacement::DeviceGlobal => write!(f, "device"),
            GlobalPlacement::TeamShared => write!(f, "shared"),
            GlobalPlacement::Constant => write!(f, "constant"),
        }
    }
}

/// A global-variable symbol.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Global {
    pub name: String,
    pub size: u64,
    pub align: u32,
    pub is_const: bool,
    pub attrs: AttrSet,
    pub placement: GlobalPlacement,
}

impl Global {
    pub fn new(name: &str, size: u64) -> Self {
        Self {
            name: name.to_string(),
            size,
            align: 8,
            is_const: false,
            attrs: AttrSet::new(),
            placement: GlobalPlacement::DeviceGlobal,
        }
    }

    pub fn constant(mut self) -> Self {
        self.is_const = true;
        self
    }
}

/// Either kind of symbol, by reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Symbol<'a> {
    Function(&'a Function),
    Global(&'a Global),
}

impl<'a> Symbol<'a> {
    pub fn name(&self) -> &str {
        match self {
            Symbol::Function(f) => &f.name,
            Symbol::Global(g) => &g.name,
        }
    }

    pub fn attrs(&self) -> &AttrSet {
        match self {
            Symbol::Function(f) => &f.attrs,
            Symbol::Global(g) => &g.attrs,
        }
    }
}

/// A translation unit after linking: the unit the custom link-time
/// optimization passes of the direct-GPU-compilation scheme operate on.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Module {
    pub name: String,
    pub functions: Vec<Function>,
    pub globals: Vec<Global>,
}

impl Module {
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            functions: Vec::new(),
            globals: Vec::new(),
        }
    }

    pub fn add_function(&mut self, f: Function) -> &mut Self {
        self.functions.push(f);
        self
    }

    pub fn add_global(&mut self, g: Global) -> &mut Self {
        self.globals.push(g);
        self
    }

    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    pub fn function_mut(&mut self, name: &str) -> Option<&mut Function> {
        self.functions.iter_mut().find(|f| f.name == name)
    }

    pub fn global(&self, name: &str) -> Option<&Global> {
        self.globals.iter().find(|g| g.name == name)
    }

    pub fn symbol(&self, name: &str) -> Option<Symbol<'_>> {
        self.function(name)
            .map(Symbol::Function)
            .or_else(|| self.global(name).map(Symbol::Global))
    }

    /// Rename a function, preserving all call edges and recording the old
    /// name as an attribute. Returns false if `old` does not exist or
    /// `new` already does.
    pub fn rename_function(&mut self, old: &str, new: &str) -> bool {
        if self.function(new).is_some() || self.function(old).is_none() {
            return false;
        }
        for f in &mut self.functions {
            for c in &mut f.callees {
                if c == old {
                    *c = new.to_string();
                }
            }
        }
        let f = self.function_mut(old).expect("checked above");
        f.attrs.add(Attr::RenamedFrom(old.to_string()));
        f.name = new.to_string();
        true
    }

    /// All functions defined in this module.
    pub fn defined_functions(&self) -> impl Iterator<Item = &Function> {
        self.functions.iter().filter(|f| f.defined)
    }

    /// All external (undefined) function declarations.
    pub fn external_functions(&self) -> impl Iterator<Item = &Function> {
        self.functions.iter().filter(|f| !f.defined)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Module {
        let mut m = Module::new("app");
        m.add_function(Function::defined("main", 2).with_callees(&["compute", "printf"]));
        m.add_function(Function::defined("compute", 1).with_attr(Attr::ParallelRegions(2)));
        m.add_function(Function::external("printf").with_variadic());
        m.add_global(Global::new("counter", 8));
        m.add_global(Global::new("table", 4096).constant());
        m
    }

    #[test]
    fn lookup_and_kind() {
        let m = sample();
        assert!(m.function("main").unwrap().defined);
        assert!(!m.function("printf").unwrap().defined);
        assert!(m.global("table").unwrap().is_const);
        assert!(m.symbol("counter").is_some());
        assert!(m.symbol("nope").is_none());
        assert_eq!(m.defined_functions().count(), 2);
        assert_eq!(m.external_functions().count(), 1);
    }

    #[test]
    fn rename_rewrites_call_edges() {
        let mut m = sample();
        assert!(m.rename_function("main", "__user_main"));
        assert!(m.function("main").is_none());
        let f = m.function("__user_main").unwrap();
        assert!(f.attrs.has(&Attr::RenamedFrom("main".into())));
        // No callers of main here, but self-consistency: compute unchanged.
        assert_eq!(m.function("compute").unwrap().callees.len(), 0);
    }

    #[test]
    fn rename_rejects_conflicts() {
        let mut m = sample();
        assert!(!m.rename_function("main", "compute"));
        assert!(!m.rename_function("ghost", "x"));
    }

    #[test]
    fn rename_updates_callers() {
        let mut m = Module::new("t");
        m.add_function(Function::defined("a", 0).with_callees(&["b"]));
        m.add_function(Function::defined("b", 0));
        assert!(m.rename_function("b", "b2"));
        assert_eq!(m.function("a").unwrap().callees, vec!["b2"]);
    }

    #[test]
    fn attrset_queries() {
        let mut a = AttrSet::new();
        a.add(Attr::DeclareTarget);
        assert!(!a.is_nohost_device());
        a.add(Attr::NoHost);
        assert!(a.is_nohost_device());
        a.add(Attr::RpcStub(3));
        assert_eq!(a.rpc_service(), Some(3));
        a.add(Attr::ParallelRegions(5));
        assert_eq!(a.parallel_regions(), 5);
        assert!(a.remove(&Attr::NoHost));
        assert!(!a.is_nohost_device());
    }

    #[test]
    fn placement_default_is_device_global() {
        let g = Global::new("g", 16);
        assert_eq!(g.placement, GlobalPlacement::DeviceGlobal);
    }
}
