//! `SYNPA_MATCHER` pins the pairing solver for every `Synpa` policy built
//! afterwards, so the
//! CI byte-diff wall can run whole experiments under the fresh and the
//! incremental matcher without code changes.
//!
//! All assertions live in one test function: the override is process-global
//! state, and this file is its own test binary, so nothing else can observe
//! the variable while it is set.

use synpa_sched::{MatcherKind, Synpa};

fn model() -> synpa_model::SynpaModel {
    use synpa_model::CategoryCoeffs;
    let c = CategoryCoeffs {
        alpha: 0.1,
        beta: 1.0,
        gamma: 0.1,
        rho: 0.5,
    };
    synpa_model::SynpaModel {
        full_dispatch: c,
        frontend: c,
        backend: c,
    }
}

#[test]
fn synpa_matcher_overrides_the_default_matcher() {
    // Unset: the incremental matcher is the workspace default.
    std::env::remove_var("SYNPA_MATCHER");
    assert_eq!(MatcherKind::from_env(), None);
    assert_eq!(Synpa::new(model()).matcher_kind(), MatcherKind::Incremental);

    // Every valid name pins the matcher for subsequently built policies.
    for kind in MatcherKind::ALL {
        std::env::set_var("SYNPA_MATCHER", kind.name());
        assert_eq!(MatcherKind::from_env(), Some(kind));
        assert_eq!(Synpa::new(model()).matcher_kind(), kind, "{kind}");
    }

    // An explicit constructor choice beats the environment.
    std::env::set_var("SYNPA_MATCHER", "incremental");
    assert_eq!(
        Synpa::with_matcher(model(), MatcherKind::Fresh).matcher_kind(),
        MatcherKind::Fresh
    );

    // Whitespace is trimmed; an empty value means "no override".
    std::env::set_var("SYNPA_MATCHER", " fresh ");
    assert_eq!(MatcherKind::from_env(), Some(MatcherKind::Fresh));
    std::env::set_var("SYNPA_MATCHER", "  ");
    assert_eq!(MatcherKind::from_env(), None);

    // An explicit pin must never fall back silently: unknown names abort,
    // and the message teaches the full valid list.
    std::env::set_var("SYNPA_MATCHER", "hungarian");
    let err = std::panic::catch_unwind(MatcherKind::from_env).unwrap_err();
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| err.downcast_ref::<&str>().unwrap_or(&"").to_string());
    for expected in ["hungarian", "fresh", "incremental"] {
        assert!(
            msg.contains(expected),
            "panic message {msg:?} lacks {expected}"
        );
    }

    std::env::remove_var("SYNPA_MATCHER");
}
