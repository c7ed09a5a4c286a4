//! The crypto layers have one implementation each and nothing in the
//! process environment can swap it.
//!
//! Alone in its own test binary on purpose: it mutates the process
//! environment, which every thread of a test binary shares.

use fabric_crypto::ecdsa::SigningKey;

#[test]
fn backend_env_vars_select_nothing() {
    // The values that used to flip each layer to its other
    // implementation — or, for an unknown name, to panic at first use.
    std::env::set_var("FABRIC_FIELD_BACKEND", "montgomery");
    std::env::set_var("FABRIC_SCALAR_BACKEND", "no-such-backend");

    // The curve parameters build and sign/verify round-trips.
    let key = SigningKey::from_seed(b"no-selectors");
    let sig = key.sign(b"payload");
    key.verifying_key()
        .verify(b"payload", &sig)
        .expect("signature verifies");
}
