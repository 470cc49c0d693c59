//! A model-specific-register file with `msr-safe`-style allow-listing.
//!
//! The paper's measurements flow through LLNL's `msr-safe` kernel driver,
//! which exposes a vetted subset of MSRs to userspace. This module
//! reproduces that interface: 64-bit registers at their real addresses,
//! an allowlist with separate read/write permission, and the Broadwell
//! energy-status semantics (32-bit wrapping counter in units read from
//! `MSR_RAPL_POWER_UNIT`).

use std::collections::HashMap;

use crate::units::Joules;

/// Register addresses (Intel SDM / Broadwell-EP).
pub mod addr {
    /// Units for power/energy/time fields.
    pub(crate) const MSR_RAPL_POWER_UNIT: u32 = 0x606;
    /// Package power-limit control.
    pub(crate) const MSR_PKG_POWER_LIMIT: u32 = 0x610;
    /// Package energy consumed, wrapping 32-bit counter.
    pub const MSR_PKG_ENERGY_STATUS: u32 = 0x611;
}

/// Errors from the allow-listed register file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MsrError {
    /// The register is not on the allowlist at all.
    UnknownRegister(u32),
    /// The register exists but the operation is not permitted.
    PermissionDenied { addr: u32, write: bool },
}

impl std::fmt::Display for MsrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MsrError::UnknownRegister(a) => write!(f, "MSR {a:#x} is not allow-listed"),
            MsrError::PermissionDenied { addr, write } => write!(
                f,
                "MSR {addr:#x}: {} not permitted",
                if *write { "write" } else { "read" }
            ),
        }
    }
}

impl std::error::Error for MsrError {}

/// Allowlist entry.
#[derive(Debug, Clone, Copy)]
struct Permission {
    read: bool,
    /// Bits that may be written (msr-safe uses write masks).
    write_mask: u64,
}

/// The simulated register file.
#[derive(Debug, Clone)]
pub struct MsrFile {
    regs: HashMap<u32, u64>,
    perms: HashMap<u32, Permission>,
}

impl Default for MsrFile {
    fn default() -> Self {
        Self::new()
    }
}

impl MsrFile {
    /// Registers and permissions matching the study's msr-safe allowlist.
    pub fn new() -> Self {
        use addr::*;
        let mut perms = HashMap::new();
        let ro = Permission {
            read: true,
            write_mask: 0,
        };
        let rw = Permission {
            read: true,
            write_mask: u64::MAX,
        };
        perms.insert(MSR_RAPL_POWER_UNIT, ro);
        perms.insert(MSR_PKG_POWER_LIMIT, rw);
        perms.insert(MSR_PKG_ENERGY_STATUS, ro);

        let mut regs = HashMap::new();
        // Energy-status unit: bits 12:8 of MSR_RAPL_POWER_UNIT give the
        // energy unit as 1 / 2^ESU joules. Broadwell-EP reports ESU = 14
        // → 61 µJ.
        regs.insert(
            MSR_RAPL_POWER_UNIT,
            14u64 << 8 | 0x3, /* power unit 1/8 W */
        );
        for &a in perms.keys() {
            regs.entry(a).or_insert(0);
        }
        MsrFile { regs, perms }
    }

    /// Userspace read through the allowlist.
    pub fn read(&self, addr: u32) -> Result<u64, MsrError> {
        let p = self
            .perms
            .get(&addr)
            .ok_or(MsrError::UnknownRegister(addr))?;
        if !p.read {
            return Err(MsrError::PermissionDenied { addr, write: false });
        }
        Ok(*self.regs.get(&addr).unwrap_or(&0))
    }

    /// Userspace write through the allowlist; only `write_mask` bits take
    /// effect, as in msr-safe.
    pub(crate) fn write(&mut self, addr: u32, value: u64) -> Result<(), MsrError> {
        let p = self
            .perms
            .get(&addr)
            .ok_or(MsrError::UnknownRegister(addr))?;
        if p.write_mask == 0 {
            return Err(MsrError::PermissionDenied { addr, write: true });
        }
        let old = *self.regs.get(&addr).unwrap_or(&0);
        self.regs
            .insert(addr, (old & !p.write_mask) | (value & p.write_mask));
        Ok(())
    }

    /// Hardware-side update (the simulation itself), bypassing the
    /// allowlist — how the "silicon" advances counters.
    pub fn hw_set(&mut self, addr: u32, value: u64) {
        self.regs.insert(addr, value);
    }

    /// Hardware-side read.
    pub(crate) fn hw_get(&self, addr: u32) -> u64 {
        *self.regs.get(&addr).unwrap_or(&0)
    }

    /// Energy unit, decoded from `MSR_RAPL_POWER_UNIT`.
    pub fn energy_unit_joules(&self) -> Joules {
        let esu = self.hw_get(addr::MSR_RAPL_POWER_UNIT) >> 8 & 0x1F;
        Joules(1.0 / (1u64 << esu) as f64)
    }

    /// Add `joules` to the wrapping 32-bit energy-status counter.
    pub fn hw_accumulate_energy(&mut self, joules: Joules) {
        let unit = self.energy_unit_joules();
        let ticks = (joules / unit).round() as u64;
        let old = self.hw_get(addr::MSR_PKG_ENERGY_STATUS);
        let new = (old + ticks) & 0xFFFF_FFFF;
        self.hw_set(addr::MSR_PKG_ENERGY_STATUS, new);
    }

    /// Difference between two energy-status readings, handling a single
    /// wrap — the standard userspace idiom.
    pub fn energy_delta_joules(&self, before: u64, after: u64) -> Joules {
        let delta = if after >= before {
            after - before
        } else {
            // One wrap of the 32-bit counter.
            after + (1u64 << 32) - before
        };
        delta as f64 * self.energy_unit_joules()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_unit_is_61_microjoules() {
        let m = MsrFile::new();
        let u = m.energy_unit_joules();
        assert!((u - Joules(1.0 / 16384.0)).abs() < 1e-12, "unit = {u}");
    }

    #[test]
    fn read_allowed_registers() {
        let m = MsrFile::new();
        assert!(m.read(addr::MSR_PKG_ENERGY_STATUS).is_ok());
        assert!(m.read(addr::MSR_RAPL_POWER_UNIT).is_ok());
    }

    #[test]
    fn unknown_register_rejected() {
        let m = MsrFile::new();
        assert_eq!(m.read(0x1234), Err(MsrError::UnknownRegister(0x1234)));
    }

    #[test]
    fn write_to_read_only_denied() {
        let mut m = MsrFile::new();
        let err = m.write(addr::MSR_PKG_ENERGY_STATUS, 42).unwrap_err();
        assert_eq!(
            err,
            MsrError::PermissionDenied {
                addr: addr::MSR_PKG_ENERGY_STATUS,
                write: true
            }
        );
    }

    #[test]
    fn power_limit_write_round_trips() {
        let mut m = MsrFile::new();
        m.write(addr::MSR_PKG_POWER_LIMIT, 0xDEAD_BEEF).unwrap();
        assert_eq!(m.read(addr::MSR_PKG_POWER_LIMIT).unwrap(), 0xDEAD_BEEF);
    }

    #[test]
    fn energy_accumulates_and_wraps() {
        let mut m = MsrFile::new();
        let unit = m.energy_unit_joules();
        // Park the counter near the wrap point.
        m.hw_set(addr::MSR_PKG_ENERGY_STATUS, 0xFFFF_FFF0);
        let before = m.read(addr::MSR_PKG_ENERGY_STATUS).unwrap();
        m.hw_accumulate_energy(unit * 0x20 as f64);
        let after = m.read(addr::MSR_PKG_ENERGY_STATUS).unwrap();
        assert!(after < before, "counter must wrap");
        let delta = m.energy_delta_joules(before, after);
        assert!((delta - unit * 32.0).abs() < unit, "delta = {delta}");
    }

    #[test]
    fn energy_delta_without_wrap() {
        let m = MsrFile::new();
        let d = m.energy_delta_joules(100, 300);
        assert!((d - 200.0 * m.energy_unit_joules()).abs() < 1e-12);
    }
}
