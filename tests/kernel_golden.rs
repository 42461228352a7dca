//! The detailed kernel's golden digest, run by the root package as well
//! so the tier-1 command covers it. The grid and the pinned digest live
//! with the simulator, in `crates/sim-cpu/tests/kernel_golden.rs`.

#[path = "../crates/sim-cpu/tests/kernel_golden.rs"]
mod kernel_golden;
