//! Cloud resources and their lifecycle.

use crate::content::SiteContent;
use crate::provider::ServiceId;
use dns::Name;
use serde::{Deserialize, Serialize};
use simcore::SimTime;
use std::collections::BTreeSet;
use std::fmt;
use std::net::Ipv4Addr;

/// Opaque resource handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ResourceId(pub u64);

impl fmt::Display for ResourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "res-{}", self.0)
    }
}

/// A customer account at a provider. The study only needs to distinguish
/// legitimate owners from attacker accounts, and attacker accounts from each
/// other (for campaign attribution).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum AccountId {
    /// A legitimate organization, by worldgen org index.
    Org(u32),
    /// An attacker campaign, by campaign index.
    Attacker(u32),
}

impl AccountId {
    pub fn is_attacker(&self) -> bool {
        matches!(self, AccountId::Attacker(_))
    }
}

/// Lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ResourceState {
    Active,
    /// Released at the given time; the identity (name or IP) returns to the
    /// available pool.
    Released {
        at: SimTime,
    },
}

/// A provisioned cloud resource.
#[derive(Debug, Clone)]
pub struct Resource {
    pub id: ResourceId,
    pub service: ServiceId,
    /// The chosen (or generated) resource name; `None` for IP-pool services.
    pub name: Option<String>,
    pub region: Option<String>,
    pub owner: AccountId,
    pub state: ResourceState,
    pub created: SimTime,
    /// The provider-generated FQDN (`<name>.<suffix>`); `None` for IP-pool
    /// services, which are addressed by IP only.
    pub generated_fqdn: Option<Name>,
    /// Serving IP: the shared front end for virtual-hosted services, or the
    /// dedicated pool address for IP services.
    pub ip: Ipv4Addr,
    /// Custom domains routed to this resource (virtual-hosting aliases).
    pub custom_domains: BTreeSet<Name>,
    /// Hosts for which a valid TLS certificate is configured. The generated
    /// FQDN is always covered (providers ship wildcard platform certs);
    /// custom domains appear here only after explicit issuance (§5.6).
    pub tls_hosts: BTreeSet<Name>,
    pub content: SiteContent,
}

impl Resource {
    pub fn is_active(&self) -> bool {
        matches!(self.state, ResourceState::Active)
    }

    pub fn released_at(&self) -> Option<SimTime> {
        match self.state {
            ResourceState::Active => None,
            ResourceState::Released { at } => Some(at),
        }
    }

    /// Does this resource answer HTTPS for `host`?
    pub fn serves_https_for(&self, host: &Name) -> bool {
        if let Some(g) = &self.generated_fqdn {
            if host == g {
                return true;
            }
        }
        self.tls_hosts.contains(host)
    }

    /// All hostnames that route to this resource.
    pub fn hostnames(&self) -> impl Iterator<Item = &Name> {
        self.generated_fqdn.iter().chain(self.custom_domains.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Resource {
        Resource {
            id: ResourceId(1),
            service: ServiceId::AzureWebApp,
            name: Some("contoso".into()),
            region: None,
            owner: AccountId::Org(7),
            state: ResourceState::Active,
            created: SimTime(10),
            generated_fqdn: Some("contoso.azurewebsites.net".parse().unwrap()),
            ip: "20.40.0.5".parse().unwrap(),
            custom_domains: BTreeSet::new(),
            tls_hosts: BTreeSet::new(),
            content: SiteContent::placeholder("x"),
        }
    }

    #[test]
    fn lifecycle_accessors() {
        let mut r = sample();
        assert!(r.is_active());
        assert_eq!(r.released_at(), None);
        r.state = ResourceState::Released { at: SimTime(99) };
        assert!(!r.is_active());
        assert_eq!(r.released_at(), Some(SimTime(99)));
    }

    #[test]
    fn https_covers_generated_but_not_custom_by_default() {
        let mut r = sample();
        let custom: Name = "shop.contoso.com".parse().unwrap();
        r.custom_domains.insert(custom.clone());
        assert!(r.serves_https_for(&"contoso.azurewebsites.net".parse().unwrap()));
        assert!(!r.serves_https_for(&custom));
        r.tls_hosts.insert(custom.clone());
        assert!(r.serves_https_for(&custom));
    }

    #[test]
    fn hostnames_iterates_all() {
        let mut r = sample();
        r.custom_domains.insert("a.contoso.com".parse().unwrap());
        r.custom_domains.insert("b.contoso.com".parse().unwrap());
        assert_eq!(r.hostnames().count(), 3);
    }

    #[test]
    fn account_kinds() {
        assert!(AccountId::Attacker(3).is_attacker());
        assert!(!AccountId::Org(3).is_attacker());
    }
}
