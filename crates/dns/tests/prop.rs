//! Property-based tests for the DNS substrate: name parse/display
//! roundtrips and suffix-algebra invariants.

use dns::Name;
use proptest::prelude::*;

fn arb_label() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z0-9_][a-z0-9_-]{0,14}").unwrap()
}

fn arb_name() -> impl Strategy<Value = Name> {
    proptest::collection::vec(arb_label(), 1..6)
        .prop_map(|labels| Name::from_labels(labels).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Name parse/display roundtrip and suffix algebra.
    #[test]
    fn name_parse_display_roundtrip(name in arb_name()) {
        let s = name.to_string();
        let back: Name = s.parse().unwrap();
        prop_assert_eq!(&back, &name);
        // every name ends with its own parent chain
        let mut p = name.parent();
        while let Some(anc) = p {
            prop_assert!(name.ends_with(&anc));
            if anc.label_count() > 0 {
                prop_assert!(name.is_subdomain_of(&anc));
            }
            p = anc.parent();
        }
    }

    /// child() then parent() is the identity.
    #[test]
    fn child_parent_inverse(name in arb_name(), label in arb_label()) {
        if let Ok(c) = name.child(&label) {
            prop_assert_eq!(c.parent().unwrap(), name);
        }
    }
}
