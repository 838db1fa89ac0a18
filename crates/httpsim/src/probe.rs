//! Liveness probing — the §2 methodology comparison.
//!
//! Prior work ([12], [3], [16]) classified a record as dangling when the
//! *IP address* behind it answered no ICMP/TCP/UDP probes. The paper shows
//! this is wrong under virtual hosting: a cloud front end answers TCP on
//! 80/443 for *every* name it hosts (underestimating vulnerability), while
//! ICMP is often filtered (overestimating it). Only an application-layer
//! request carrying the FQDN in the `Host` header reveals whether *that
//! specific service* still exists.
//!
//! [`Endpoint`] is the abstract "thing at the end of a connection" that the
//! cloud simulator implements; [`probe`] evaluates one FQDN with one probe
//! type, returning what each technique would conclude.

use crate::message::{Request, Response};
use serde::{Deserialize, Serialize};
use simcore::SimTime;
use std::net::Ipv4Addr;

/// The three probe techniques compared in §2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProbeKind {
    /// ICMP echo against the resolved IP (the [3] approach).
    IcmpPing,
    /// TCP connect against the resolved IP on a port (the [12]/[16] approach;
    /// the pipeline uses 80 and 443).
    TcpConnect(u16),
    /// Full HTTP request with the FQDN in the Host header (the paper's
    /// approach).
    Http { https: bool },
}

/// What a probe observed.
#[derive(Debug, Clone, PartialEq)]
pub enum ProbeResult {
    /// ICMP/TCP: reachable. Says nothing about the FQDN's service.
    Reachable,
    /// ICMP/TCP: no answer.
    Unreachable,
    /// HTTP: got a response (any status — a 404 from the platform's catch-all
    /// still proves the front end is alive, and its *body* is what the
    /// signature pipeline inspects).
    HttpResponse(Response),
    /// HTTP: connection failed entirely (no front end at that IP).
    ConnectionFailed,
}

impl ProbeResult {
    /// Would this probe classify the target as "alive"? This is the exact
    /// quantity the §2 comparison tabulates per probe type.
    pub fn considers_alive(&self) -> bool {
        match self {
            ProbeResult::Reachable => true,
            ProbeResult::Unreachable => false,
            // §2 counts "responsive domains": any HTTP response counts.
            ProbeResult::HttpResponse(_) => true,
            ProbeResult::ConnectionFailed => false,
        }
    }
}

/// The network-visible surface of an IP address in the simulated world.
/// `cloudsim` implements this for its front-end servers; tests implement it
/// directly. (The weekly crawl fetches through `dangling-core`'s
/// `monitor::Web`, which routes on the FQDN's DNS name instead.)
pub trait Endpoint {
    /// Does the IP answer ICMP echo at `now`? Cloud front ends commonly
    /// filter ICMP — this is what makes ping-based scans overestimate
    /// vulnerability.
    fn icmp_responds(&self, ip: Ipv4Addr, now: SimTime) -> bool;

    /// Is the TCP port open at `now`? Virtual-hosting front ends keep 80/443
    /// open regardless of whether a given hosted name still exists.
    fn tcp_open(&self, ip: Ipv4Addr, port: u16, now: SimTime) -> bool;

    /// Serve an HTTP request addressed to `ip` (routing on the Host header).
    /// `None` models connection failure (no server at the IP).
    fn http_serve(&self, ip: Ipv4Addr, request: &Request, now: SimTime) -> Option<Response>;
}

/// Run one probe of `kind` against `ip` for the FQDN `host`.
pub fn probe<E: Endpoint + ?Sized>(
    endpoint: &E,
    kind: ProbeKind,
    ip: Ipv4Addr,
    host: &str,
    now: SimTime,
) -> ProbeResult {
    let reachability = |alive| {
        if alive {
            ProbeResult::Reachable
        } else {
            ProbeResult::Unreachable
        }
    };
    match kind {
        ProbeKind::IcmpPing => reachability(endpoint.icmp_responds(ip, now)),
        ProbeKind::TcpConnect(port) => reachability(endpoint.tcp_open(ip, port, now)),
        ProbeKind::Http { https } => {
            let req = if https {
                Request::get_https(host, "/")
            } else {
                Request::get(host, "/")
            };
            match endpoint.http_serve(ip, &req, now) {
                Some(resp) => ProbeResult::HttpResponse(resp),
                None => ProbeResult::ConnectionFailed,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::StatusCode;

    /// A virtual-hosting front end: filters ICMP, keeps 80/443 open, serves
    /// only names it knows.
    struct VhostFrontEnd {
        ip: Ipv4Addr,
        hosted: Vec<String>,
    }

    impl Endpoint for VhostFrontEnd {
        fn icmp_responds(&self, ip: Ipv4Addr, _now: SimTime) -> bool {
            // filtered even for its own IP
            let _ = ip;
            false
        }

        fn tcp_open(&self, ip: Ipv4Addr, port: u16, _now: SimTime) -> bool {
            ip == self.ip && (port == 80 || port == 443)
        }

        fn http_serve(&self, ip: Ipv4Addr, req: &Request, _now: SimTime) -> Option<Response> {
            if ip != self.ip {
                return None;
            }
            if self.hosted.contains(&req.host) {
                Some(Response::ok("<html>service</html>"))
            } else {
                Some(Response::not_found("<html>no such app</html>"))
            }
        }
    }

    #[test]
    fn virtual_hosting_disagreement() {
        // The exact situation §2 describes: the IP is alive, the FQDN's
        // service is gone.
        let fe = VhostFrontEnd {
            ip: Ipv4Addr::new(20, 1, 1, 1),
            hosted: vec!["alive.azurewebsites.net".into()],
        };
        let now = SimTime(0);
        let ip = fe.ip;

        // ICMP says dead (overestimates vulnerability).
        assert!(
            !probe(&fe, ProbeKind::IcmpPing, ip, "gone.azurewebsites.net", now).considers_alive()
        );
        // TCP says alive (underestimates vulnerability).
        assert!(probe(
            &fe,
            ProbeKind::TcpConnect(443),
            ip,
            "gone.azurewebsites.net",
            now
        )
        .considers_alive());
        // HTTP responds (alive front end) but with a platform 404 body — the
        // signal an attacker (and the pipeline) actually uses.
        match probe(
            &fe,
            ProbeKind::Http { https: false },
            ip,
            "gone.azurewebsites.net",
            now,
        ) {
            ProbeResult::HttpResponse(r) => assert_eq!(r.status, StatusCode::NOT_FOUND),
            other => panic!("expected response, got {other:?}"),
        }
    }

    #[test]
    fn http_to_wrong_ip_fails() {
        let fe = VhostFrontEnd {
            ip: Ipv4Addr::new(20, 1, 1, 1),
            hosted: vec![],
        };
        let r = probe(
            &fe,
            ProbeKind::Http { https: false },
            Ipv4Addr::new(9, 9, 9, 9),
            "x",
            SimTime(0),
        );
        assert_eq!(r, ProbeResult::ConnectionFailed);
        assert!(!r.considers_alive());
    }

    #[test]
    fn tcp_other_ports_closed() {
        let fe = VhostFrontEnd {
            ip: Ipv4Addr::new(20, 1, 1, 1),
            hosted: vec![],
        };
        assert!(!probe(&fe, ProbeKind::TcpConnect(22), fe.ip, "x", SimTime(0)).considers_alive());
    }
}
