//! The cloud platform: registration, release, re-registration, routing.
//!
//! This module is where the paper's core attack becomes mechanically
//! possible. [`CloudPlatform::register`] enforces only *name availability* —
//! exactly like the real services — so once a legitimate owner releases
//! `contoso.azurewebsites.net`, any account (including an attacker's) may
//! register the name `contoso` again and inherit all traffic from DNS
//! records that still point at the generated FQDN.
//!
//! Mitigation knobs ablated by the benchmark harness:
//! - [`PlatformConfig::reregistration_cooldown_days`] — §7's "disallow the
//!   re-registration of recently released resource names",
//! - [`PlatformConfig::randomize_freetext_names`] — §4.3's "randomized
//!   identifiers" mitigation (turns every Freetext service into RandomName).

use crate::content::SiteContent;
use crate::ip::{IpPool, IpRangeTable};
use crate::provider::{spec, NamingModel, ProviderId, ServiceId, ServiceSpec, CATALOG};
use crate::resource::{AccountId, Resource, ResourceId, ResourceState};
use dns::{Name, RecordData, ResourceRecord, Zone, ZoneSet};
use httpsim::{Body, Endpoint, Request, Response};
use rand::Rng;
use serde::{Deserialize, Serialize};
use simcore::rng::splitmix64;
use simcore::{fnv1a, SimTime};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::LazyLock;

/// Platform-wide policy knobs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlatformConfig {
    /// Days a released freetext name stays unavailable (0 = immediate
    /// re-registration, the real-world default the paper exploits).
    pub reregistration_cooldown_days: i32,
    /// Mitigation ablation: generate random names even for Freetext services.
    pub randomize_freetext_names: bool,
    /// Shared virtual-hosting front ends per service.
    pub front_ends_per_service: u32,
    /// Percent of front-end IPs answering ICMP echo when the service spec
    /// says ICMP is filtered (models inconsistent edge configurations; tuned
    /// so the §2 liveness comparison lands near the paper's 72%).
    pub icmp_unfiltered_percent: u8,
    /// Percent of front-end IPs with TCP 80/443 reachable (paper: ~93%).
    pub tcp_open_percent: u8,
    /// TTL for platform-generated DNS records.
    pub record_ttl: u32,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            reregistration_cooldown_days: 0,
            randomize_freetext_names: false,
            front_ends_per_service: 24,
            icmp_unfiltered_percent: 40,
            tcp_open_percent: 93,
            record_ttl: 300,
        }
    }
}

/// Registration failures.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RegisterError {
    /// The name is currently held by an active resource.
    NameTaken,
    /// The name was recently released and is under the cooldown mitigation.
    NameOnCooldown { until: SimTime },
    /// Freetext services require a requested name.
    NameRequired,
    /// REGION-bearing services require a region.
    RegionRequired,
    /// Region not offered by the service.
    UnknownRegion,
    /// The requested name failed DNS label validation.
    InvalidName,
    /// IP pool exhausted.
    PoolExhausted,
}

type NameKey = (ServiceId, String, Option<String>);

/// The simulated multi-provider cloud.
pub struct CloudPlatform {
    cfg: PlatformConfig,
    resources: HashMap<ResourceId, Resource>,
    next_id: u64,
    active_names: HashMap<NameKey, ResourceId>,
    cooldowns: HashMap<NameKey, SimTime>,
    /// Host → active resource (generated FQDNs and bound custom domains).
    host_routes: HashMap<Name, ResourceId>,
    /// Dedicated IP → active resource (IpPool services).
    ip_routes: HashMap<Ipv4Addr, ResourceId>,
    front_ends: HashMap<ServiceId, Vec<Ipv4Addr>>,
    ip_index: IpRangeTable<ServiceId>,
    pools: HashMap<ServiceId, IpPool>,
    /// Authoritative zones for the service suffixes (azurewebsites.net, …).
    zones: ZoneSet,
    /// Lifetime counters (for Table 2's "# Monitored" style reporting).
    pub registrations: HashMap<ServiceId, u64>,
}

impl CloudPlatform {
    pub fn new(cfg: PlatformConfig) -> Self {
        let mut front_ends = HashMap::new();
        let mut pools = HashMap::new();
        let mut zones = ZoneSet::new();
        for s in CATALOG {
            match s.naming {
                NamingModel::Freetext | NamingModel::RandomName => {
                    let block: crate::ip::Cidr = s.ranges[0].parse().unwrap();
                    let n = cfg.front_ends_per_service.min(block.size() as u32) as u64;
                    let ips: Vec<Ipv4Addr> = (0..n).map(|i| block.nth(i + 1)).collect();
                    front_ends.insert(s.id, ips);
                    if let Some(zone_origin) = s.suffix_zone() {
                        if zones.get(&zone_origin).is_none() {
                            zones.insert(Zone::new(zone_origin));
                        }
                    }
                }
                NamingModel::IpPool => {
                    let blocks = s
                        .ranges
                        .iter()
                        .map(|r| r.parse().unwrap())
                        .collect::<Vec<_>>();
                    pools.insert(s.id, IpPool::new(blocks));
                }
            }
        }
        CloudPlatform {
            cfg,
            resources: HashMap::new(),
            next_id: 1,
            active_names: HashMap::new(),
            cooldowns: HashMap::new(),
            host_routes: HashMap::new(),
            ip_routes: HashMap::new(),
            front_ends,
            ip_index: crate::provider::cloud_ip_ranges(),
            pools,
            zones,
            registrations: HashMap::new(),
        }
    }

    pub fn config(&self) -> &PlatformConfig {
        &self.cfg
    }

    /// The platform's authoritative zones (to be composed into the world's
    /// DNS authority).
    pub fn zones(&self) -> &ZoneSet {
        &self.zones
    }

    /// Is a freetext name currently available for registration? This is the
    /// attacker's (free, unauthenticated) availability check.
    pub fn name_available(
        &self,
        service: ServiceId,
        name: &str,
        region: Option<&str>,
        now: SimTime,
    ) -> bool {
        let key = (
            service,
            name.to_ascii_lowercase(),
            region.map(str::to_string),
        );
        if self.active_names.contains_key(&key) {
            return false;
        }
        if let Some(&until) = self.cooldowns.get(&key) {
            if until > now {
                return false;
            }
        }
        true
    }

    /// Register a resource.
    pub fn register<R: Rng + ?Sized>(
        &mut self,
        service: ServiceId,
        requested_name: Option<&str>,
        region: Option<&str>,
        owner: AccountId,
        now: SimTime,
        rng: &mut R,
    ) -> Result<ResourceId, RegisterError> {
        let s: &ServiceSpec = spec(service);
        if s.needs_region() {
            let r = region.ok_or(RegisterError::RegionRequired)?;
            if !s.regions.contains(&r) {
                return Err(RegisterError::UnknownRegion);
            }
        }
        let id = ResourceId(self.next_id);
        let resource = match s.naming {
            NamingModel::IpPool => {
                let pool = self.pools.get_mut(&service).expect("pool exists");
                let ip = pool.allocate(rng).ok_or(RegisterError::PoolExhausted)?;
                Resource {
                    id,
                    service,
                    name: None,
                    region: region.map(str::to_string),
                    owner,
                    state: ResourceState::Active,
                    created: now,
                    generated_fqdn: None,
                    ip,
                    custom_domains: Default::default(),
                    tls_hosts: Default::default(),
                    content: SiteContent::default(),
                }
            }
            NamingModel::Freetext | NamingModel::RandomName => {
                let effective_random =
                    s.naming == NamingModel::RandomName || self.cfg.randomize_freetext_names;
                let name = if effective_random {
                    // 16 base-36 chars: unguessable, collision-free in practice.
                    let mut n = String::with_capacity(16);
                    for _ in 0..16 {
                        let c = b"abcdefghijklmnopqrstuvwxyz0123456789"[rng.gen_range(0..36usize)];
                        n.push(c as char);
                    }
                    n
                } else {
                    requested_name
                        .ok_or(RegisterError::NameRequired)?
                        .to_ascii_lowercase()
                };
                if name.is_empty()
                    || name.len() > 63
                    || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '-')
                {
                    return Err(RegisterError::InvalidName);
                }
                let key = (service, name.clone(), region.map(str::to_string));
                if self.active_names.contains_key(&key) {
                    return Err(RegisterError::NameTaken);
                }
                if let Some(&until) = self.cooldowns.get(&key) {
                    if until > now {
                        return Err(RegisterError::NameOnCooldown { until });
                    }
                }
                let fqdn = s
                    .generated_fqdn(&name, region)
                    .map_err(|_| RegisterError::InvalidName)?;
                let fes = &self.front_ends[&service];
                let ip = fes[(splitmix64(fnv1a(name.as_bytes())) % fes.len() as u64) as usize];
                self.active_names.insert(key, id);
                Resource {
                    id,
                    service,
                    name: Some(name),
                    region: region.map(str::to_string),
                    owner,
                    state: ResourceState::Active,
                    created: now,
                    generated_fqdn: Some(fqdn),
                    ip,
                    custom_domains: Default::default(),
                    tls_hosts: Default::default(),
                    content: SiteContent::default(),
                }
            }
        };
        self.next_id += 1;
        if let Some(fqdn) = &resource.generated_fqdn {
            self.host_routes.insert(fqdn.clone(), id);
            // Publish the A record in the platform zone.
            if let Some(z) = self.zones.find_zone_mut(fqdn) {
                z.add(ResourceRecord::new(
                    fqdn.clone(),
                    self.cfg.record_ttl,
                    RecordData::A(resource.ip),
                ));
            }
        } else {
            self.ip_routes.insert(resource.ip, id);
        }
        *self.registrations.entry(service).or_insert(0) += 1;
        self.resources.insert(id, resource);
        Ok(id)
    }

    /// Release a resource: its name/IP becomes available again, routing and
    /// platform DNS entries are removed, and its content is dropped (nothing
    /// routes to it again, and content cannot be set on it). Idempotent.
    pub fn release(&mut self, id: ResourceId, now: SimTime) {
        let Some(res) = self.resources.get_mut(&id) else {
            return;
        };
        if !res.is_active() {
            return;
        }
        res.state = ResourceState::Released { at: now };
        res.content = SiteContent::default();
        if let Some(name) = &res.name {
            let key = (res.service, name.clone(), res.region.clone());
            self.active_names.remove(&key);
            if self.cfg.reregistration_cooldown_days > 0 {
                self.cooldowns
                    .insert(key, now + self.cfg.reregistration_cooldown_days);
            }
        }
        if let Some(fqdn) = &res.generated_fqdn {
            self.host_routes.remove(fqdn);
            if let Some(z) = self.zones.find_zone_mut(fqdn) {
                z.remove_name(fqdn);
            }
        } else {
            self.ip_routes.remove(&res.ip);
            if let Some(pool) = self.pools.get_mut(&res.service) {
                pool.release(res.ip);
            }
        }
        for host in res.custom_domains.iter() {
            self.host_routes.remove(host);
        }
    }

    /// Bind a custom domain to an active resource's virtual hosting.
    pub fn bind_custom_domain(&mut self, id: ResourceId, host: Name) -> bool {
        let Some(res) = self.resources.get_mut(&id) else {
            return false;
        };
        if !res.is_active() {
            return false;
        }
        res.custom_domains.insert(host.clone());
        self.host_routes.insert(host, id);
        true
    }

    /// Configure a valid certificate for `host` on the resource (reachable
    /// via HTTPS afterwards). The certificate object itself lives in certsim;
    /// the platform only needs the binding.
    pub fn add_tls_host(&mut self, id: ResourceId, host: Name) -> bool {
        match self.resources.get_mut(&id) {
            Some(res) if res.is_active() => {
                res.tls_hosts.insert(host);
                true
            }
            _ => false,
        }
    }

    /// Replace the site content of a resource.
    pub fn set_content(&mut self, id: ResourceId, content: SiteContent) -> bool {
        match self.resources.get_mut(&id) {
            Some(res) if res.is_active() => {
                res.content = content;
                true
            }
            _ => false,
        }
    }

    pub fn resource(&self, id: ResourceId) -> Option<&Resource> {
        self.resources.get(&id)
    }

    pub fn resource_by_host(&self, host: &Name) -> Option<&Resource> {
        self.host_routes
            .get(host)
            .and_then(|id| self.resources.get(id))
    }

    pub fn resource_by_ip(&self, ip: Ipv4Addr) -> Option<&Resource> {
        self.ip_routes
            .get(&ip)
            .and_then(|id| self.resources.get(id))
    }

    pub fn iter(&self) -> impl Iterator<Item = &Resource> {
        self.resources.values()
    }

    /// Which service's range an IP belongs to.
    pub fn service_of_ip(&self, ip: Ipv4Addr) -> Option<ServiceId> {
        self.ip_index.lookup(ip).copied()
    }

    pub fn pool(&self, service: ServiceId) -> Option<&IpPool> {
        self.pools.get(&service)
    }

    /// Provider default page served when a front end receives a Host header
    /// it cannot route — the fingerprint takeover scanners look for.
    fn default_error_page(service: ServiceId) -> Response {
        let page = match spec(service).provider {
            ProviderId::Azure => 0,
            ProviderId::Aws => 1,
            ProviderId::Heroku => 2,
            _ => 3,
        };
        Response::not_found(ERROR_PAGES[page].clone())
    }

    fn is_front_end(&self, ip: Ipv4Addr) -> Option<ServiceId> {
        let service = self.ip_index.lookup(ip).copied()?;
        self.front_ends
            .get(&service)
            .map(|fes| fes.contains(&ip))
            .unwrap_or(false)
            .then_some(service)
    }
}

/// The provider error pages (Azure, AWS, Heroku, every other provider),
/// built and hashed once and shared by every response that serves one.
static ERROR_PAGES: LazyLock<[Body; 4]> = LazyLock::new(|| {
    [
        "<html><head><title>404 Web Site not found</title></head><body>\
         <h1>404 Web Site not found.</h1>\
         <p>The web app you have attempted to reach is not available.</p></body></html>",
        "<html><head><title>404 Not Found</title></head><body>\
         <h1>404 Not Found</h1><ul><li>Code: NoSuchBucket</li>\
         <li>Message: The specified bucket does not exist</li></ul></body></html>",
        "<html><head><title>No such app</title></head><body>\
         <h1>There's nothing here, yet.</h1></body></html>",
        "<html><head><title>Not Found</title></head><body>\
         <h1>Site not found</h1></body></html>",
    ]
    .map(Body::from)
});

impl Endpoint for CloudPlatform {
    fn icmp_responds(&self, ip: Ipv4Addr, _now: SimTime) -> bool {
        if let Some(service) = self.is_front_end(ip) {
            if spec(service).icmp_open {
                return true;
            }
            // Inconsistent edge configurations: a deterministic per-IP coin.
            return splitmix64(u32::from(ip) as u64) % 100
                < self.cfg.icmp_unfiltered_percent as u64;
        }
        // Dedicated VM IPs answer ICMP while allocated.
        self.ip_routes.contains_key(&ip)
    }

    fn tcp_open(&self, ip: Ipv4Addr, port: u16, _now: SimTime) -> bool {
        if port != 80 && port != 443 {
            return false;
        }
        if let Some(_service) = self.is_front_end(ip) {
            return splitmix64(u32::from(ip) as u64 ^ 0xDEAD) % 100
                < self.cfg.tcp_open_percent as u64;
        }
        self.ip_routes.contains_key(&ip)
    }

    fn http_serve(&self, ip: Ipv4Addr, request: &Request, _now: SimTime) -> Option<Response> {
        // A Host that is no DNS name routes to no resource.
        let host = Name::parse(&request.host).ok();
        self.route(ip, host.as_ref(), request.path, request.https)
    }
}

impl CloudPlatform {
    /// Serve a GET of `path` addressed to `ip` for virtual host `host`,
    /// over TLS when `https`: what [`Endpoint::http_serve`] answers for a
    /// request whose `Host` is `host`, without the string round trip.
    /// `None` is no server at `ip` or a failed TLS handshake.
    pub fn serve_host(
        &self,
        ip: Ipv4Addr,
        host: &Name,
        path: &str,
        https: bool,
    ) -> Option<Response> {
        self.route(ip, Some(host), path, https)
    }

    /// The one routing implementation. `host` is `None` when the request's
    /// `Host` is not a valid DNS name.
    fn route(
        &self,
        ip: Ipv4Addr,
        host: Option<&Name>,
        path: &str,
        https: bool,
    ) -> Option<Response> {
        // Dedicated-IP resources serve regardless of Host.
        if let Some(res) = self.resource_by_ip(ip) {
            if https && !host.is_some_and(|h| res.serves_https_for(h)) {
                return None; // TLS handshake failure
            }
            return Some(res.content.serve(path));
        }
        // Virtual-hosting front ends route on the Host header. (The
        // tcp_open() percentage models *probe* observations of §2, not the
        // data path: front ends serve HTTP regardless.)
        let service = self.is_front_end(ip)?;
        let Some(host) = host else {
            return Some(Self::default_error_page(service));
        };
        match self.resource_by_host(host) {
            Some(res) if res.service == service => {
                if https && !res.serves_https_for(host) {
                    return None;
                }
                Some(res.content.serve(path))
            }
            // No certificate for an unknown host: handshake fails.
            _ if https => None,
            _ => Some(Self::default_error_page(service)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use httpsim::StatusCode;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    fn platform() -> CloudPlatform {
        CloudPlatform::new(PlatformConfig::default())
    }

    #[test]
    fn freetext_register_release_reregister() {
        let mut p = platform();
        let mut r = rng();
        let t0 = SimTime(0);
        let id = p
            .register(
                ServiceId::AzureWebApp,
                Some("contoso"),
                None,
                AccountId::Org(1),
                t0,
                &mut r,
            )
            .unwrap();
        // Name now taken.
        assert_eq!(
            p.register(
                ServiceId::AzureWebApp,
                Some("Contoso"), // case-insensitive
                None,
                AccountId::Org(2),
                t0,
                &mut r
            ),
            Err(RegisterError::NameTaken)
        );
        assert!(!p.name_available(ServiceId::AzureWebApp, "contoso", None, t0));
        // Release frees it — the dangling-record precondition.
        p.release(id, SimTime(100));
        assert!(p.name_available(ServiceId::AzureWebApp, "contoso", None, SimTime(100)));
        // Attacker re-registers the exact name (deterministic takeover).
        let hijack = p
            .register(
                ServiceId::AzureWebApp,
                Some("contoso"),
                None,
                AccountId::Attacker(0),
                SimTime(101),
                &mut r,
            )
            .unwrap();
        let res = p.resource(hijack).unwrap();
        assert_eq!(
            res.generated_fqdn.as_ref().unwrap().to_string(),
            "contoso.azurewebsites.net"
        );
        assert!(res.owner.is_attacker());
    }

    #[test]
    fn cooldown_mitigation_blocks_reregistration() {
        let mut p = CloudPlatform::new(PlatformConfig {
            reregistration_cooldown_days: 30,
            ..Default::default()
        });
        let mut r = rng();
        let id = p
            .register(
                ServiceId::HerokuApp,
                Some("shop"),
                None,
                AccountId::Org(1),
                SimTime(0),
                &mut r,
            )
            .unwrap();
        p.release(id, SimTime(10));
        assert_eq!(
            p.register(
                ServiceId::HerokuApp,
                Some("shop"),
                None,
                AccountId::Attacker(0),
                SimTime(20),
                &mut r
            ),
            Err(RegisterError::NameOnCooldown { until: SimTime(40) })
        );
        // After the cooldown it opens again.
        assert!(p
            .register(
                ServiceId::HerokuApp,
                Some("shop"),
                None,
                AccountId::Attacker(0),
                SimTime(41),
                &mut r
            )
            .is_ok());
    }

    #[test]
    fn randomize_names_mitigation() {
        let mut p = CloudPlatform::new(PlatformConfig {
            randomize_freetext_names: true,
            ..Default::default()
        });
        let mut r = rng();
        let id = p
            .register(
                ServiceId::AzureWebApp,
                Some("contoso"),
                None,
                AccountId::Org(1),
                SimTime(0),
                &mut r,
            )
            .unwrap();
        let fqdn = p.resource(id).unwrap().generated_fqdn.clone().unwrap();
        // The requested name is ignored; an unguessable one is minted.
        assert!(!fqdn.to_string().starts_with("contoso."));
        p.release(id, SimTime(1));
        // Re-registering mints a *different* name: the dangling record can
        // never be recaptured.
        let id2 = p
            .register(
                ServiceId::AzureWebApp,
                Some("contoso"),
                None,
                AccountId::Attacker(0),
                SimTime(2),
                &mut r,
            )
            .unwrap();
        assert_ne!(p.resource(id2).unwrap().generated_fqdn, Some(fqdn));
    }

    #[test]
    fn region_validation() {
        let mut p = platform();
        let mut r = rng();
        assert_eq!(
            p.register(
                ServiceId::AwsS3Website,
                Some("assets"),
                None,
                AccountId::Org(1),
                SimTime(0),
                &mut r
            ),
            Err(RegisterError::RegionRequired)
        );
        assert_eq!(
            p.register(
                ServiceId::AwsS3Website,
                Some("assets"),
                Some("mars-north-1"),
                AccountId::Org(1),
                SimTime(0),
                &mut r
            ),
            Err(RegisterError::UnknownRegion)
        );
        let id = p
            .register(
                ServiceId::AwsS3Website,
                Some("assets"),
                Some("eu-west-1"),
                AccountId::Org(1),
                SimTime(0),
                &mut r,
            )
            .unwrap();
        assert_eq!(
            p.resource(id)
                .unwrap()
                .generated_fqdn
                .as_ref()
                .unwrap()
                .to_string(),
            "assets.s3-website.eu-west-1.amazonaws.com"
        );
        // Same name in a different region is a different resource.
        assert!(p
            .register(
                ServiceId::AwsS3Website,
                Some("assets"),
                Some("us-east-1"),
                AccountId::Org(2),
                SimTime(0),
                &mut r
            )
            .is_ok());
    }

    #[test]
    fn invalid_names_rejected() {
        let mut p = platform();
        let mut r = rng();
        for bad in ["", "has space", "under_score!", &"x".repeat(64)] {
            assert_eq!(
                p.register(
                    ServiceId::AzureWebApp,
                    Some(bad),
                    None,
                    AccountId::Org(1),
                    SimTime(0),
                    &mut r
                ),
                Err(RegisterError::InvalidName),
                "{bad:?}"
            );
        }
        assert_eq!(
            p.register(
                ServiceId::AzureWebApp,
                None,
                None,
                AccountId::Org(1),
                SimTime(0),
                &mut r
            ),
            Err(RegisterError::NameRequired)
        );
    }

    #[test]
    fn platform_zone_records_follow_lifecycle() {
        let mut p = platform();
        let mut r = rng();
        let fqdn: Name = "contoso.azurewebsites.net".parse().unwrap();
        let id = p
            .register(
                ServiceId::AzureWebApp,
                Some("contoso"),
                None,
                AccountId::Org(1),
                SimTime(0),
                &mut r,
            )
            .unwrap();
        let z = p.zones().find_zone(&fqdn).unwrap();
        assert_eq!(z.records_at(&fqdn).len(), 1);
        p.release(id, SimTime(1));
        let z = p.zones().find_zone(&fqdn).unwrap();
        assert!(z.records_at(&fqdn).is_empty());
    }

    #[test]
    fn ip_pool_register_release() {
        let mut p = platform();
        let mut r = rng();
        let id = p
            .register(
                ServiceId::AwsEc2PublicIp,
                None,
                None,
                AccountId::Org(1),
                SimTime(0),
                &mut r,
            )
            .unwrap();
        let ip = p.resource(id).unwrap().ip;
        assert!(p.pool(ServiceId::AwsEc2PublicIp).unwrap().is_allocated(ip));
        assert!(p.resource_by_ip(ip).is_some());
        p.release(id, SimTime(5));
        assert!(!p.pool(ServiceId::AwsEc2PublicIp).unwrap().is_allocated(ip));
        assert!(p.resource_by_ip(ip).is_none());
    }

    #[test]
    fn vhost_routing_and_default_page() {
        let mut p = platform();
        let mut r = rng();
        let id = p
            .register(
                ServiceId::AzureWebApp,
                Some("contoso"),
                None,
                AccountId::Org(1),
                SimTime(0),
                &mut r,
            )
            .unwrap();
        p.set_content(id, SiteContent::placeholder("Contoso Shop"));
        let custom: Name = "shop.contoso.com".parse().unwrap();
        p.bind_custom_domain(id, custom.clone());
        let ip = p.resource(id).unwrap().ip;
        let now = SimTime(0);
        // Generated FQDN routes.
        let resp = p
            .http_serve(ip, &Request::get("contoso.azurewebsites.net", "/"), now)
            .unwrap();
        assert!(resp.body.as_str().contains("Contoso Shop"));
        // Custom domain routes to the same content.
        let resp = p
            .http_serve(ip, &Request::get("shop.contoso.com", "/"), now)
            .unwrap();
        assert!(resp.body.as_str().contains("Contoso Shop"));
        // Unknown host gets the provider 404 fingerprint.
        let resp = p
            .http_serve(ip, &Request::get("gone.azurewebsites.net", "/"), now)
            .unwrap();
        assert_eq!(resp.status, StatusCode::NOT_FOUND);
        assert!(resp.body.as_str().contains("not available"));
    }

    #[test]
    fn https_requires_cert_binding() {
        let mut p = platform();
        let mut r = rng();
        let id = p
            .register(
                ServiceId::AzureWebApp,
                Some("contoso"),
                None,
                AccountId::Org(1),
                SimTime(0),
                &mut r,
            )
            .unwrap();
        let custom: Name = "shop.contoso.com".parse().unwrap();
        p.bind_custom_domain(id, custom.clone());
        let ip = p.resource(id).unwrap().ip;
        let now = SimTime(0);
        // Platform cert covers the generated name out of the box.
        assert!(p
            .http_serve(
                ip,
                &Request::get_https("contoso.azurewebsites.net", "/"),
                now
            )
            .is_some());
        // Custom domain over HTTPS fails until a cert is configured.
        assert!(p
            .http_serve(ip, &Request::get_https("shop.contoso.com", "/"), now)
            .is_none());
        p.add_tls_host(id, custom.clone());
        assert!(p
            .http_serve(ip, &Request::get_https("shop.contoso.com", "/"), now)
            .is_some());
    }

    #[test]
    fn released_resource_stops_serving() {
        let mut p = platform();
        let mut r = rng();
        let id = p
            .register(
                ServiceId::HerokuApp,
                Some("app1"),
                None,
                AccountId::Org(1),
                SimTime(0),
                &mut r,
            )
            .unwrap();
        let ip = p.resource(id).unwrap().ip;
        p.set_content(id, SiteContent::placeholder("Heroku app"));
        p.release(id, SimTime(1));
        // Its content goes with it, and none can be set again.
        assert_eq!(p.resource(id).unwrap().content, SiteContent::default());
        assert!(!p.set_content(id, SiteContent::placeholder("again")));
        assert_eq!(p.resource(id).unwrap().content, SiteContent::default());
        let resp = p
            .http_serve(ip, &Request::get("app1.herokuapp.com", "/"), SimTime(2))
            .unwrap();
        assert_eq!(resp.status, StatusCode::NOT_FOUND);
        assert!(resp.body.as_str().contains("nothing here"));
        // Every unroutable host gets the one shared error page.
        let other = p
            .http_serve(ip, &Request::get("app2.herokuapp.com", "/"), SimTime(2))
            .unwrap();
        assert_eq!(other.body.as_ptr(), resp.body.as_ptr());
    }

    #[test]
    fn dedicated_ip_serves_any_host() {
        let mut p = platform();
        let mut r = rng();
        let id = p
            .register(
                ServiceId::AwsEc2PublicIp,
                None,
                None,
                AccountId::Org(1),
                SimTime(0),
                &mut r,
            )
            .unwrap();
        p.set_content(id, SiteContent::placeholder("VM site"));
        let ip = p.resource(id).unwrap().ip;
        let resp = p
            .http_serve(ip, &Request::get("www.anything.com", "/"), SimTime(0))
            .unwrap();
        assert!(resp.body.as_str().contains("VM site"));
        assert!(p.icmp_responds(ip, SimTime(0)));
        assert!(p.tcp_open(ip, 80, SimTime(0)));
        assert!(!p.tcp_open(ip, 22, SimTime(0)));
    }

    /// Routed, TLS-bound, released and unknown hosts at a front end, any
    /// host at a dedicated IP, and an IP with no server.
    fn routing_cases() -> (CloudPlatform, Vec<(Ipv4Addr, Name)>) {
        let mut p = platform();
        let mut r = rng();
        let mut register = |p: &mut CloudPlatform, service, name| {
            p.register(service, name, None, AccountId::Org(1), SimTime(0), &mut r)
                .unwrap()
        };
        let id = register(&mut p, ServiceId::AzureWebApp, Some("contoso"));
        let mut content = SiteContent::placeholder("Contoso Shop");
        content.sitemap_bytes = Some(crate::sitemap_bytes(10));
        p.set_content(id, content);
        let custom: Name = "shop.contoso.com".parse().unwrap();
        let tls: Name = "www.contoso.com".parse().unwrap();
        p.bind_custom_domain(id, custom.clone());
        p.bind_custom_domain(id, tls.clone());
        p.add_tls_host(id, tls.clone());
        let fe = p.resource(id).unwrap().ip;
        let gone = register(&mut p, ServiceId::HerokuApp, Some("gone"));
        let gone_ip = p.resource(gone).unwrap().ip;
        p.release(gone, SimTime(1));
        let vm = register(&mut p, ServiceId::AwsEc2PublicIp, None);
        p.set_content(vm, SiteContent::placeholder("VM site"));
        let vm_ip = p.resource(vm).unwrap().ip;
        let n = |s: &str| -> Name { s.parse().unwrap() };
        let cases = vec![
            (fe, n("contoso.azurewebsites.net")),
            (fe, custom),
            (fe, tls),
            (fe, n("nobody.azurewebsites.net")),
            (gone_ip, n("gone.herokuapp.com")),
            (vm_ip, n("www.anything.com")),
            (Ipv4Addr::new(9, 9, 9, 9), n("x.example.com")),
        ];
        (p, cases)
    }

    #[test]
    fn name_keyed_serve_equals_http_serve() {
        let (p, cases) = routing_cases();
        let mut answered = 0;
        for (ip, host) in &cases {
            for https in [false, true] {
                for path in ["/", "/sitemap.xml", "/nope.html"] {
                    let request = if https {
                        Request::get_https(host.to_string(), path)
                    } else {
                        Request::get(host.to_string(), path)
                    };
                    let by_string = p.http_serve(*ip, &request, SimTime(2));
                    assert_eq!(
                        p.serve_host(*ip, host, path, https),
                        by_string,
                        "{host} at {ip}, https={https}, {path}"
                    );
                    answered += usize::from(by_string.is_some());
                }
            }
        }
        // Both answers and refusals (no server, failed handshakes) occur.
        assert_eq!(answered, 24);
    }

    #[test]
    fn malformed_host_answers() {
        // A Host that is no DNS name ("a..b") routes to nothing; "" parses
        // as the root name, which no resource is bound to.
        let (p, cases) = routing_cases();
        let (fe, vm) = (cases[0].0, cases[5].0);
        let now = SimTime(2);
        let error_page = p
            .http_serve(fe, &Request::get("nobody.azurewebsites.net", "/"), now)
            .unwrap();
        assert_eq!(error_page.status, StatusCode::NOT_FOUND);
        for host in ["", "a..b"] {
            let http = |ip| p.http_serve(ip, &Request::get(host, "/"), now);
            let https = |ip| p.http_serve(ip, &Request::get_https(host, "/"), now);
            assert_eq!(http(fe), Some(error_page.clone()), "{host:?}");
            let vm_page = http(vm).unwrap();
            assert!(vm_page.body.as_str().contains("VM site"), "{host:?}");
            assert_eq!(https(vm), None, "{host:?}");
        }
        // Over TLS a front end fails the handshake for the root name, and
        // answers an unparsable Host with the error page.
        assert_eq!(p.http_serve(fe, &Request::get_https("", "/"), now), None);
        assert_eq!(
            p.http_serve(fe, &Request::get_https("a..b", "/"), now),
            Some(error_page)
        );
    }

    #[test]
    fn service_of_ip_classification() {
        let p = platform();
        assert_eq!(
            p.service_of_ip("20.40.0.1".parse().unwrap()),
            Some(ServiceId::AzureWebApp)
        );
        assert_eq!(p.service_of_ip("9.9.9.9".parse().unwrap()), None);
    }
}
