//! World-advancement stage: everything that happens *to* the simulated
//! world — organizations provisioning, releasing and remediating cloud
//! resources, attacker campaigns, benign content churn, certificate history,
//! and the §2 liveness probes. The monitoring stages observe what this stage
//! does, never the other way around.

use super::{Ev, RunState, Stage};
use crate::world::{remediation_delay, HijackTruth};
use attacker::{CostModel, Scanner};
use certsim::CaId;
use cloudsim::{AccountId, NamingModel, ResourceId};
use contentgen::abuse::AbuseTopic;
use dns::{Name, Resolver};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use simcore::SimTime;
use worldgen::CaaPolicy;

/// Mutable per-campaign execution state.
struct CampaignState {
    hijacked_hosts: Vec<String>,
    quota_used: u32,
}

/// The world-advancement stage (see module docs).
pub struct WorldStage {
    scanner: Scanner,
    cost_model: CostModel,
    plan_resource: Vec<Option<ResourceId>>,
    /// Dangling, hijackable (freetext naming).
    open_freetext: Vec<usize>,
    /// Dangling IP records (evaluated and declined, §4.3).
    open_ip: Vec<usize>,
    campaign_state: Vec<CampaignState>,
    truth_steals_cookies: Vec<bool>,
    benign_rng: StdRng,
    attacker_rng: StdRng,
    org_rng: StdRng,
    refresh_round: u32,
    // Telemetry handles, resolved once. Counters only observe decisions
    // already made — they never touch an RNG stream or event ordering.
    m_provisions: &'static obs::Counter,
    m_releases: &'static obs::Counter,
    m_remediations: &'static obs::Counter,
    m_hijacks: &'static obs::Counter,
    m_certs_issued: &'static obs::Counter,
    m_caa_blocked: &'static obs::Counter,
    m_ip_declines: &'static obs::Counter,
    m_rng_benign: &'static obs::Gauge,
    m_rng_attacker: &'static obs::Gauge,
    m_rng_org: &'static obs::Gauge,
}

impl WorldStage {
    pub fn new(rs: &RunState) -> Self {
        WorldStage {
            scanner: Scanner::new(),
            cost_model: CostModel::default(),
            plan_resource: vec![None; rs.world.population.plans.len()],
            open_freetext: Vec::new(),
            open_ip: Vec::new(),
            campaign_state: rs
                .world
                .campaigns
                .iter()
                .map(|_| CampaignState {
                    hijacked_hosts: Vec::new(),
                    quota_used: 0,
                })
                .collect(),
            truth_steals_cookies: Vec::new(),
            benign_rng: rs.tree.rng("scenario/benign"),
            attacker_rng: rs.tree.rng("scenario/attacker"),
            org_rng: rs.tree.rng("scenario/orgs"),
            refresh_round: 0,
            m_provisions: obs::counter("world.provisions"),
            m_releases: obs::counter("world.releases"),
            m_remediations: obs::counter("world.remediations"),
            m_hijacks: obs::counter("world.hijacks"),
            m_certs_issued: obs::counter("world.certs_issued"),
            m_caa_blocked: obs::counter("world.caa_blocked_certs"),
            m_ip_declines: obs::counter("world.ip_lottery_declines"),
            m_rng_benign: obs::gauge("world.rng.benign_draws"),
            m_rng_attacker: obs::gauge("world.rng.attacker_draws"),
            m_rng_org: obs::gauge("world.rng.org_draws"),
        }
    }

    /// Digest of the positions of this stage's three sequential RNG streams.
    ///
    /// The world stage owns the only *stateful* RNGs in the simulation
    /// (everything else derives keyed streams from the [`simcore::RngTree`]).
    /// A resumed run replays world events from the seed, so after replaying
    /// to round R these cursors must land exactly where the original run's
    /// did at R — the persistence layer records the digest in every
    /// checkpoint and refuses to resume on a mismatch.
    pub fn rng_cursor_digest(&self) -> u64 {
        let mut bytes = [0u8; 24];
        for (chunk, cur) in bytes.chunks_exact_mut(8).zip([
            self.benign_rng.cursor(),
            self.attacker_rng.cursor(),
            self.org_rng.cursor(),
        ]) {
            chunk.copy_from_slice(&cur.to_le_bytes());
        }
        simcore::fnv1a(&bytes)
    }

    fn provision(&mut self, rs: &mut RunState, now: SimTime, idx: usize) {
        let plan = rs.world.population.plans[idx].clone();
        let org = rs.world.population.org(plan.org).clone();
        let account = AccountId::Org(org.id.0);
        let name = plan.resource_name.clone();
        let mut rid = None;
        for attempt in 0..3 {
            let try_name = name.as_deref().map(|n| {
                if attempt == 0 {
                    n.to_string()
                } else {
                    format!("{n}-{attempt}")
                }
            });
            match rs.world.platform.register(
                plan.service,
                try_name.as_deref(),
                plan.region.as_deref(),
                account,
                now,
                &mut self.org_rng,
            ) {
                Ok(id) => {
                    rid = Some(id);
                    break;
                }
                Err(cloudsim::RegisterError::NameTaken) => continue,
                Err(_) => break,
            }
        }
        let Some(rid) = rid else { return };
        self.m_provisions.inc();
        self.plan_resource[idx] = Some(rid);
        // Serve content; bind the org subdomain. Parked domains serve the
        // registrar's parking rotation (the Figure 10 confounder lives inside
        // the monitored set).
        let content = if org.parked {
            contentgen::benign::parked_site(&worldgen::org::registrar_name(org.registrar), 0)
        } else if org.category == worldgen::OrgCategory::Popular && self.org_rng.gen_bool(0.03) {
            // Benign sites whose vocabulary brushes the abuse lexicon — the
            // §3.2 validation corpus needs them.
            contentgen::benign::benign_topical_site(
                &org.name,
                &plan.subdomain.to_string(),
                &mut self.org_rng,
            )
        } else {
            contentgen::benign::benign_site(
                match org.category {
                    worldgen::OrgCategory::University => contentgen::BenignKind::University,
                    worldgen::OrgCategory::Government => contentgen::BenignKind::Government,
                    _ => contentgen::BenignKind::Corporate,
                },
                &org.name,
                org.sector,
                &plan.subdomain.to_string(),
                &mut self.org_rng,
            )
        };
        rs.world.platform.set_content(rid, content);
        rs.world
            .platform
            .bind_custom_domain(rid, plan.subdomain.clone());
        // Publish the org-side DNS record.
        let res = rs.world.platform.resource(rid).unwrap();
        let record = match &res.generated_fqdn {
            Some(target) => dns::ResourceRecord::new(
                plan.subdomain.clone(),
                300,
                dns::RecordData::Cname(target.clone()),
            ),
            None => {
                dns::ResourceRecord::new(plan.subdomain.clone(), 300, dns::RecordData::A(res.ip))
            }
        };
        rs.world.org_zones.zone_mut_or_create(&org.apex).add(record);
        // Legitimate certificate issuance (multi-SAN background of Figure 20).
        if self.org_rng.gen_bool(rs.cfg.org_cert_probability) {
            let sans = if self.org_rng.gen_bool(0.2) {
                vec![Name::parse(&format!("*.{}", org.apex)).unwrap()]
            } else {
                vec![plan.subdomain.clone(), org.apex.clone()]
            };
            let ca = match org.caa {
                CaaPolicy::PaidOnly => CaId::DigiCert,
                CaaPolicy::FreeCa => CaId::LetsEncrypt,
                CaaPolicy::None => *[
                    CaId::LetsEncrypt,
                    CaId::DigiCert,
                    CaId::AzureCa,
                    CaId::Sectigo,
                ]
                .choose(&mut self.org_rng)
                .unwrap(),
            };
            if rs.world.try_issue_cert(ca, account, &sans, now).is_ok() {
                self.m_certs_issued.inc();
                let renew = now + ca.validity_days() - 7;
                if renew > now && renew <= rs.horizon {
                    rs.q.schedule(renew, Ev::OrgCertRenewal(idx));
                }
            }
        }
    }

    fn org_cert_renewal(&mut self, rs: &mut RunState, now: SimTime, idx: usize) {
        let Some(rid) = self.plan_resource[idx] else {
            return;
        };
        let plan = &rs.world.population.plans[idx];
        if !rs
            .world
            .platform
            .resource(rid)
            .map(|r| r.is_active() && !r.owner.is_attacker())
            .unwrap_or(false)
        {
            return;
        }
        let org = rs.world.population.org(plan.org).clone();
        let sans = vec![plan.subdomain.clone(), org.apex.clone()];
        let ca = match org.caa {
            CaaPolicy::PaidOnly => CaId::DigiCert,
            _ => CaId::LetsEncrypt,
        };
        if rs
            .world
            .try_issue_cert(ca, AccountId::Org(org.id.0), &sans, now)
            .is_ok()
        {
            self.m_certs_issued.inc();
            let renew = now + ca.validity_days() - 7;
            if renew <= rs.horizon {
                rs.q.schedule(renew, Ev::OrgCertRenewal(idx));
            }
        }
    }

    fn release(&mut self, rs: &mut RunState, now: SimTime, idx: usize) {
        let Some(rid) = self.plan_resource[idx] else {
            return;
        };
        // The attacker may already own the name (only possible if the org
        // re-registered; guard anyway).
        if rs
            .world
            .platform
            .resource(rid)
            .map(|r| r.owner.is_attacker())
            .unwrap_or(true)
        {
            return;
        }
        rs.world.platform.release(rid, now);
        self.m_releases.inc();
        let plan = &rs.world.population.plans[idx];
        if plan.purge_record_on_release {
            let sub = plan.subdomain.clone();
            if let Some(z) = rs.world.org_zones.find_zone_mut(&sub) {
                z.remove_name(&sub);
            }
        } else {
            let naming = cloudsim::provider::spec(plan.service).naming;
            match naming {
                NamingModel::Freetext => self.open_freetext.push(idx),
                NamingModel::IpPool => self.open_ip.push(idx),
                NamingModel::RandomName => {} // unguessable; dead end
            }
        }
    }

    fn attacker_week(&mut self, rs: &mut RunState, now: SimTime) {
        // §4.3 economics: every open IP dangling is evaluated and declined.
        for &idx in &self.open_ip {
            let plan = &rs.world.population.plans[idx];
            let org = rs.world.population.org(plan.org);
            let pool_free = rs
                .world
                .platform
                .pool(plan.service)
                .map(|p| p.free_count())
                .unwrap_or(0);
            let d = self
                .cost_model
                .decide(plan.service, org.tranco_rank, pool_free);
            debug_assert!(!d.proceeds());
            rs.ip_lottery_declines += 1;
            self.m_ip_declines.inc();
        }
        self.open_ip.clear(); // evaluated once, never pursued

        for ci in 0..rs.world.campaigns.len() {
            let campaign = rs.world.campaigns[ci].clone();
            if !campaign.is_active(now)
                || self.campaign_state[ci].quota_used >= campaign.target_hijacks
            {
                continue;
            }
            let n = simcore::Poisson::new(campaign.hijacks_per_week)
                .sample(&mut self.attacker_rng)
                .min((campaign.target_hijacks - self.campaign_state[ci].quota_used) as u64);
            for _ in 0..n {
                if self.open_freetext.is_empty() {
                    break;
                }
                // Sample a few candidates; prefer reputation.
                let k = 6.min(self.open_freetext.len());
                let mut picks: Vec<usize> = (0..self.open_freetext.len()).collect();
                picks.shuffle(&mut self.attacker_rng);
                picks.truncate(k);
                let best_pos = picks
                    .into_iter()
                    .max_by(|&a, &b| {
                        let va = self.cost_model.domain_value(
                            rs.world
                                .population
                                .org(rs.world.population.plans[self.open_freetext[a]].org)
                                .tranco_rank,
                        );
                        let vb = self.cost_model.domain_value(
                            rs.world
                                .population
                                .org(rs.world.population.plans[self.open_freetext[b]].org)
                                .tranco_rank,
                        );
                        va.partial_cmp(&vb).unwrap()
                    })
                    .unwrap();
                let plan_idx = self.open_freetext.swap_remove(best_pos);
                let plan = rs.world.population.plans[plan_idx].clone();
                // Cooldown-blocked names free up later: keep the opportunity
                // on the list (the §7 mitigation delays attackers, it does
                // not erase targets).
                if let Some(res) =
                    self.plan_resource[plan_idx].and_then(|rid| rs.world.platform.resource(rid))
                {
                    if let Some(name) = &res.name {
                        if !rs.world.platform.name_available(
                            plan.service,
                            name,
                            plan.region.as_deref(),
                            now,
                        ) {
                            self.open_freetext.push(plan_idx);
                            continue;
                        }
                    }
                }
                // Verify via the real scanning primitive.
                let findings = {
                    let resolver = Resolver::new(rs.world.dns());
                    self.scanner.scan(
                        std::slice::from_ref(&plan.subdomain),
                        &resolver,
                        &rs.world.platform,
                        now,
                    )
                };
                let Some(finding) = findings.into_iter().next() else {
                    continue;
                };
                let account = campaign.account();
                let Ok(rid) = rs.world.platform.register(
                    finding.service,
                    Some(&finding.resource_name),
                    finding.region.as_deref(),
                    account,
                    now,
                    &mut self.attacker_rng,
                ) else {
                    continue;
                };
                // Verify the takeover actually worked: the minted FQDN must
                // be the one the victim's record points at. Under the
                // randomized-names mitigation the platform mints something
                // else and the attacker walks away (this is the §4.3
                // determinism check in action).
                let got = rs
                    .world
                    .platform
                    .resource(rid)
                    .and_then(|r| r.generated_fqdn.clone());
                if got.as_ref() != Some(&finding.cloud_fqdn) {
                    rs.world.platform.release(rid, now);
                    continue;
                }
                rs.world
                    .platform
                    .bind_custom_domain(rid, finding.victim_fqdn.clone());
                let spec = campaign.make_abuse_spec(
                    &self.campaign_state[ci].hijacked_hosts,
                    &mut self.attacker_rng,
                );
                let content = contentgen::abuse::build_abuse_site(
                    &spec,
                    &finding.victim_fqdn.to_string(),
                    &mut self.attacker_rng,
                );
                rs.world.platform.set_content(rid, content);
                self.campaign_state[ci]
                    .hijacked_hosts
                    .push(finding.victim_fqdn.to_string());
                self.campaign_state[ci].quota_used += 1;
                // Certificate?
                let in_boost = now >= rs.cfg.cert_boost_from && now <= rs.cfg.cert_boost_until;
                let p_cert = if in_boost {
                    0.75
                } else {
                    campaign.cert_probability
                };
                let mut cert = None;
                let mut cert_at = None;
                if self.attacker_rng.gen_bool(p_cert) {
                    let ca = if self.attacker_rng.gen_bool(0.85) {
                        CaId::LetsEncrypt
                    } else {
                        CaId::ZeroSsl
                    };
                    match rs.world.try_issue_cert(
                        ca,
                        account,
                        std::slice::from_ref(&finding.victim_fqdn),
                        now,
                    ) {
                        Ok(id) => {
                            self.m_certs_issued.inc();
                            cert = Some(id);
                            cert_at = Some(now);
                        }
                        Err(certsim::IssueError::CaaForbids(_)) => {
                            rs.caa_blocked_certs += 1;
                            self.m_caa_blocked.inc();
                        }
                        Err(_) => {}
                    }
                }
                // Malware droppers on gambling sites (§5.4).
                if spec.topic == AbuseTopic::Gambling {
                    let arts = rs.world.malware_model.sample_site(
                        &finding.victim_fqdn,
                        now,
                        &mut self.attacker_rng,
                    );
                    rs.world.binaries.extend(arts);
                }
                // Ground truth + remediation scheduling.
                let org = rs.world.population.org(plan.org).clone();
                let delay = remediation_delay(org.remediation_median_days, &mut self.attacker_rng);
                let truth_idx = rs.world.truth.len();
                rs.world.truth.push(HijackTruth {
                    victim_fqdn: finding.victim_fqdn.clone(),
                    cloud_fqdn: finding.cloud_fqdn.clone(),
                    org: org.id,
                    campaign: campaign.id,
                    service: finding.service,
                    resource: rid,
                    start: now,
                    end: None,
                    topic: spec.topic,
                    technique: spec.technique,
                    page_count: spec.page_count,
                    identifiers_embedded: !spec.links.phones.is_empty()
                        || !spec.links.social.is_empty(),
                    cert,
                    cert_issued_at: cert_at,
                });
                self.m_hijacks.inc();
                self.truth_steals_cookies.push(
                    self.attacker_rng
                        .gen_bool(rs.cfg.cookie_stealer_probability),
                );
                let rem = now + delay;
                if rem <= rs.horizon {
                    rs.q.schedule(rem, Ev::Remediate(truth_idx));
                }
                if now + 7 <= rs.horizon {
                    rs.q.schedule(now + 7, Ev::LivenessProbe(truth_idx));
                }
            }
        }

        // Cookie exfiltration on live stealer hijacks (§5.5).
        for (ti, t) in rs.world.truth.iter().enumerate() {
            if t.end.is_some() || !self.truth_steals_cookies.get(ti).copied().unwrap_or(false) {
                continue;
            }
            let class = rs.world.capability_of(t.service);
            let https = t.cert.is_some();
            let visitors = rs.world.weekly_visitors(t.org);
            let fqdn = t.victim_fqdn.clone();
            rs.world.vault.simulate_visits(
                &fqdn,
                class,
                https,
                visitors,
                0.02,
                now,
                &mut self.attacker_rng,
            );
        }
    }

    fn remediate(&mut self, rs: &mut RunState, now: SimTime, truth_idx: usize) {
        let fqdn = rs.world.truth[truth_idx].victim_fqdn.clone();
        if rs.world.truth[truth_idx].end.is_some() {
            return;
        }
        if let Some(z) = rs.world.org_zones.find_zone_mut(&fqdn) {
            z.remove_name(&fqdn);
        }
        rs.world.truth[truth_idx].end = Some(now);
        self.m_remediations.inc();
    }

    fn benign_refresh(&mut self, rs: &mut RunState) {
        self.refresh_round += 1;
        // Parking rotations: all parked apexes of one registrar flip together
        // (the Figure 10 confounder).
        let parked: Vec<(Name, String)> = rs
            .world
            .population
            .orgs
            .iter()
            .filter(|o| o.parked)
            .map(|o| (o.apex.clone(), worldgen::org::registrar_name(o.registrar)))
            .collect();
        for (apex, provider) in parked {
            if let Some(ip) = rs.world.origins.ip_of(&apex) {
                rs.world.origins.host(
                    apex,
                    ip,
                    contentgen::benign::parked_site(&provider, self.refresh_round),
                );
            }
        }
        // A slice of org cloud sites get routine content updates; parked
        // cloud sites rotate with their registrar.
        let active: Vec<(ResourceId, usize)> = self
            .plan_resource
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.map(|rid| (rid, i)))
            .filter(|(rid, _)| {
                rs.world
                    .platform
                    .resource(*rid)
                    .map(|r| r.is_active() && !r.owner.is_attacker())
                    .unwrap_or(false)
            })
            .collect();
        for (rid, idx) in active {
            let plan = &rs.world.population.plans[idx];
            let org = rs.world.population.org(plan.org).clone();
            if org.parked {
                rs.world.platform.set_content(
                    rid,
                    contentgen::benign::parked_site(
                        &worldgen::org::registrar_name(org.registrar),
                        self.refresh_round,
                    ),
                );
                continue;
            }
            if !self.benign_rng.gen_bool(0.02) {
                continue;
            }
            let content = contentgen::benign::benign_site(
                contentgen::BenignKind::Corporate,
                &org.name,
                org.sector,
                &plan.subdomain.to_string(),
                &mut self.benign_rng,
            );
            rs.world.platform.set_content(rid, content);
        }
    }

    fn historic_cert_wave(&mut self, rs: &mut RunState, now: SimTime) {
        // Figure 20's 2017 anomaly: single-SAN LE certs mass issued for
        // subdomains that will later dangle. Appended directly to CT
        // (pre-study history reconstruction; see DESIGN.md substitutions).
        let candidates: Vec<Name> = rs
            .world
            .population
            .plans
            .iter()
            .filter(|p| p.deterministically_hijackable())
            .map(|p| p.subdomain.clone())
            .collect();
        let mut rng = rs.tree.rng("scenario/certwave2017");
        let n = (candidates.len() as f64 * 0.5) as usize;
        let mut picks = candidates;
        picks.shuffle(&mut rng);
        picks.truncate(n);
        for (i, fqdn) in picks.into_iter().enumerate() {
            let id = rs.world.fresh_cert_id();
            let cert = certsim::Certificate {
                id,
                subject: fqdn.clone(),
                sans: vec![fqdn],
                issuer: if i % 20 == 0 {
                    CaId::ZeroSsl
                } else {
                    CaId::LetsEncrypt
                },
                not_before: now,
                not_after: now + 90,
                requested_by: AccountId::Attacker(u32::MAX),
            };
            rs.world.ct.append(cert, now + (i as i32 % 14));
        }
    }

    fn liveness_probe(&mut self, rs: &mut RunState, now: SimTime, truth_idx: usize) {
        // §2's methodology comparison, run while the hijack is live: ICMP and
        // TCP probe the resolved IP; HTTP carries the FQDN in the Host header.
        let t = &rs.world.truth[truth_idx];
        let fqdn = t.victim_fqdn.clone();
        let outcome = {
            let resolver = Resolver::new(rs.world.dns());
            resolver.resolve_a(&fqdn, now)
        };
        let web = rs.world.web();
        use httpsim::{probe::probe, ProbeKind, ProbeResult};
        let (icmp, tcp80, tcp443, http) = match outcome.addresses.first() {
            Some(&ip) => (
                probe(&web, ProbeKind::IcmpPing, ip, &fqdn.to_string(), now).considers_alive(),
                probe(&web, ProbeKind::TcpConnect(80), ip, &fqdn.to_string(), now)
                    .considers_alive(),
                probe(&web, ProbeKind::TcpConnect(443), ip, &fqdn.to_string(), now)
                    .considers_alive(),
                matches!(
                    probe(
                        &web,
                        ProbeKind::Http { https: false },
                        ip,
                        &fqdn.to_string(),
                        now
                    ),
                    ProbeResult::HttpResponse(_)
                ),
            ),
            None => (false, false, false, false),
        };
        rs.liveness.push(crate::report::LivenessSample {
            icmp,
            tcp80,
            tcp443,
            http,
        });
    }
}

impl Stage for WorldStage {
    fn name(&self) -> &'static str {
        "world"
    }

    fn on_event(&mut self, rs: &mut RunState, now: SimTime, ev: Ev) {
        match ev {
            Ev::Provision(idx) => self.provision(rs, now, idx),
            Ev::OrgCertRenewal(idx) => self.org_cert_renewal(rs, now, idx),
            Ev::Release(idx) => self.release(rs, now, idx),
            Ev::AttackerWeek => self.attacker_week(rs, now),
            Ev::Remediate(idx) => self.remediate(rs, now, idx),
            Ev::BenignRefresh => self.benign_refresh(rs),
            Ev::HistoricCertWave => self.historic_cert_wave(rs, now),
            Ev::LivenessProbe(idx) => self.liveness_probe(rs, now, idx),
            Ev::MonitorWeek => {} // handled by the monitoring stages
        }
        // Cursor positions of the three stateful RNG streams: total draws so
        // far, the world stage's determinism fingerprint made visible.
        self.m_rng_benign.set(self.benign_rng.cursor() as f64);
        self.m_rng_attacker.set(self.attacker_rng.cursor() as f64);
        self.m_rng_org.set(self.org_rng.cursor() as f64);
    }
}
