//! # cloudsim — cloud-platform simulator
//!
//! Models the twelve cloud platforms the paper monitors, with the property
//! §4.3 identifies as the root cause of every observed hijack: **resource
//! naming**. Each service allocates resources under one of three models:
//!
//! - [`provider::NamingModel::Freetext`] — the customer types a name and the
//!   platform mints `<name>.<service-suffix>` (Azure Web Apps, S3 website
//!   buckets, Heroku, …). Releasing the resource frees the name for anyone,
//!   which makes re-registration *deterministic* — the attack the paper
//!   actually observes, 20,904 times.
//! - [`provider::NamingModel::IpPool`] — the resource receives a random IP
//!   from a large provider pool (EC2/Azure VM public addresses). Obtaining a
//!   *specific* released IP is a lottery; §4.3 finds zero such takeovers.
//! - [`provider::NamingModel::RandomName`] — the platform generates the
//!   subdomain itself (Google Cloud). No user input, no deterministic
//!   re-registration; the paper finds no abused Google-hosted domains.
//!
//! [`platform::CloudPlatform`] owns resource lifecycles, the authoritative
//! DNS zones for all service suffixes, per-service virtual-hosting front
//! ends, and implements [`httpsim::Endpoint`] so the probe machinery and
//! crawler talk to it exactly like prior work talked to real clouds.

pub mod content;
pub mod ip;
pub mod platform;
pub mod provider;
pub mod resource;

pub use content::{sitemap_bytes, SiteContent};
pub use ip::{Cidr, IpPool, IpRangeTable};
pub use platform::{CloudPlatform, PlatformConfig, RegisterError};
pub use provider::{
    CapabilityClass, NamingModel, ProviderId, ServiceFunction, ServiceId, ServiceSpec, CATALOG,
};
pub use resource::{AccountId, Resource, ResourceId, ResourceState};
