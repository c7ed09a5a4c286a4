//! The production path has one implementation per layer and nothing in
//! the process environment can swap it.
//!
//! Alone in its own test binary on purpose: it mutates the process
//! environment, which every thread of a test binary shares.

use fabric_crypto::ecdsa::SigningKey;
use fabric_statedb::{StateBackend, StateDb};
use fabric_store::{FabricStore, StoreConfig};

#[test]
fn backend_env_vars_select_nothing() {
    // The values that used to flip each layer to its other
    // implementation — or, for an unknown name, to panic at first use.
    std::env::set_var("FABRIC_STATE_BACKEND", "legacy");
    std::env::set_var("FABRIC_FIELD_BACKEND", "montgomery");
    std::env::set_var("FABRIC_SCALAR_BACKEND", "no-such-backend");

    assert_eq!(StateDb::new().backend(), StateBackend::Sharded);
    assert_eq!(
        StateDb::from_snapshot(Vec::new(), None).backend(),
        StateBackend::Sharded
    );

    let dir = std::env::temp_dir().join(format!("bmac-no-selectors-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = FabricStore::open(&dir, StoreConfig::default()).expect("fresh store opens");
    assert_eq!(store.state_db().backend(), StateBackend::Sharded);
    drop(store);
    std::fs::remove_dir_all(&dir).expect("scratch store removed");

    // The curve parameters build and sign/verify round-trips.
    let key = SigningKey::from_seed(b"no-selectors");
    let sig = key.sign(b"payload");
    key.verifying_key()
        .verify(b"payload", &sig)
        .expect("signature verifies");
}
