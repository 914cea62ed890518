//! A fleet of simulated devices built from a [`DeviceRegistry`].
//!
//! Each device owns its own memory, transfer engine and timing state, so
//! kernels launched on different fleet members are fully independent —
//! the property the ensemble executor relies on to replay its device
//! lanes as concurrent.

use crate::kernel::Gpu;
use gpu_arch::{DeviceRegistry, GpuSpec};

/// An ordered collection of independent simulated GPUs.
pub struct DeviceFleet {
    gpus: Vec<Gpu>,
}

impl DeviceFleet {
    /// Instantiate one [`Gpu`] per registry entry.
    pub fn from_registry(registry: &DeviceRegistry) -> Self {
        Self {
            gpus: registry.devices.iter().cloned().map(Gpu::new).collect(),
        }
    }

    /// `count` identical devices of the given spec.
    pub fn homogeneous(spec: GpuSpec, count: u32) -> Self {
        Self::from_registry(&DeviceRegistry::homogeneous(spec, count))
    }

    pub fn len(&self) -> usize {
        self.gpus.len()
    }

    pub fn is_empty(&self) -> bool {
        self.gpus.is_empty()
    }

    pub fn gpu(&self, device: usize) -> &Gpu {
        &self.gpus[device]
    }

    pub fn gpu_mut(&mut self, device: usize) -> &mut Gpu {
        &mut self.gpus[device]
    }

    pub fn spec(&self, device: usize) -> &GpuSpec {
        &self.gpus[device].spec
    }

    /// A fleet of already-built devices (e.g. one fresh `Gpu` per
    /// serving wave).
    pub fn from_gpus(gpus: Vec<Gpu>) -> Self {
        Self { gpus }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_instantiates_independent_devices() {
        let reg = DeviceRegistry::parse("a100,a100*0.5").unwrap();
        let mut fleet = DeviceFleet::from_registry(&reg);
        assert_eq!(fleet.len(), 2);
        assert_eq!(fleet.spec(0).sm_count, 108);
        assert_eq!(fleet.spec(1).sm_count, 54);

        // Allocating on one device must not disturb the other.
        let before = fleet.gpu(1).mem.free_bytes();
        fleet.gpu_mut(0).mem.alloc(4096).unwrap();
        assert_eq!(fleet.gpu(1).mem.free_bytes(), before);
    }
}
