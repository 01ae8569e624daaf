//! Fault injection for 8-bit inference (SRAM soft errors in edge silicon)
//! and the campaign machinery measuring how each element format degrades
//! and how much corruption the cheap numerical detectors catch.

#![warn(missing_docs)]

pub mod campaign;
pub mod ckpt_campaign;
pub mod inject;
pub mod lifecycle;
pub mod runtime;

pub use campaign::{
    cell_seed, corrupt_model, run_campaign, weight_traffic_budget, CampaignCell, CampaignConfig,
    Harness,
};
pub use ckpt_campaign::{
    checkpoint_state_for, run_ckpt_campaign, CkptCampaignCell, CkptCampaignConfig,
};
pub use inject::{BitFlipInjector, CodeFormat, InjectionReport};
pub use lifecycle::{CrashSchedule, CrashWindow, LifecycleEvent};
pub use runtime::{BerFaultSource, BurstFaultSource, FaultSource, NoFaults, StorageFaultModel};
