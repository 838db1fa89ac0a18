//! The attacker-capability model (§5.1, Table 4, Figure 17).
//!
//! What an attacker can do with a hijacked domain is a function of the cloud
//! resource class they control: static-content resources (S3, Pantheon CMS)
//! give file/content/html/javascript; full-webserver resources additionally
//! give header access and HTTPS. The §5.5 cookie consequences follow
//! mechanically: [`cookie_access`] is the per-class row `repro table4`
//! prints, and `attacker::cookievault::can_steal_cookie` is the per-cookie
//! rule the simulated hijacks run.

use cloudsim::CapabilityClass;
use serde::{Deserialize, Serialize};

/// Individual capabilities from Table 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Capabilities {
    pub file: bool,
    pub content: bool,
    pub html: bool,
    pub javascript: bool,
    pub headers: bool,
    pub https: bool,
}

/// Table 4, row for a capability class.
pub fn capabilities(class: CapabilityClass) -> Capabilities {
    match class {
        CapabilityClass::StaticContent => Capabilities {
            file: true,
            content: true,
            html: true,
            javascript: true, // via injected script tags (CMS may need a plugin)
            headers: false,
            https: false,
        },
        CapabilityClass::FullWebserver => Capabilities {
            file: true,
            content: true,
            html: true,
            javascript: true,
            headers: true,
            https: true,
        },
    }
}

/// Which cookies can the attacker steal (§5.5)?
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CookieAccess {
    /// Header access: all cookies the browser sends, including HttpOnly.
    AllCookies,
    /// Script-only access: cookies without HttpOnly.
    ScriptVisibleOnly,
}

/// Cookie access for a capability class.
pub fn cookie_access(class: CapabilityClass) -> CookieAccess {
    if capabilities(class).headers {
        CookieAccess::AllCookies
    } else {
        CookieAccess::ScriptVisibleOnly
    }
}

/// §5.1's attack-prerequisite check, extending [16]: which same-site attacks
/// does the capability class enable? CSP bypass needs file+html; CORS /
/// postMessage / domain-relaxation abuse additionally need javascript —
/// "all of these are possible from static hosting resources".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SameSiteAttack {
    CspBypass,
    CorsAbuse,
    PostMessageAbuse,
    DomainRelaxation,
    SecureCookieTheft,
}

pub fn attack_possible(class: CapabilityClass, https: bool, attack: SameSiteAttack) -> bool {
    let caps = capabilities(class);
    match attack {
        SameSiteAttack::CspBypass => caps.file && caps.html,
        SameSiteAttack::CorsAbuse
        | SameSiteAttack::PostMessageAbuse
        | SameSiteAttack::DomainRelaxation => caps.file && caps.html && caps.javascript,
        SameSiteAttack::SecureCookieTheft => https,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_rows() {
        let s = capabilities(CapabilityClass::StaticContent);
        assert!(s.file && s.content && s.html && s.javascript);
        assert!(!s.headers && !s.https);
        let f = capabilities(CapabilityClass::FullWebserver);
        assert!(f.headers && f.https);
    }

    #[test]
    fn cookie_access_split() {
        assert_eq!(
            cookie_access(CapabilityClass::FullWebserver),
            CookieAccess::AllCookies
        );
        assert_eq!(
            cookie_access(CapabilityClass::StaticContent),
            CookieAccess::ScriptVisibleOnly
        );
    }

    #[test]
    fn same_site_attacks_from_static_hosting() {
        // §5.1: "all of these are possible from static hosting resources".
        for a in [
            SameSiteAttack::CspBypass,
            SameSiteAttack::CorsAbuse,
            SameSiteAttack::PostMessageAbuse,
            SameSiteAttack::DomainRelaxation,
        ] {
            assert!(attack_possible(CapabilityClass::StaticContent, false, a));
        }
        // ...except secure-cookie theft, which needs https.
        assert!(!attack_possible(
            CapabilityClass::StaticContent,
            false,
            SameSiteAttack::SecureCookieTheft
        ));
        assert!(attack_possible(
            CapabilityClass::FullWebserver,
            true,
            SameSiteAttack::SecureCookieTheft
        ));
    }
}
