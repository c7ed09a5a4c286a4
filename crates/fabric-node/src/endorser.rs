//! The endorser peer: proposal simulation + endorsement.
//!
//! "Each endorser peer executes the transaction against its own state
//! database, in order to compute the read and write sets. ... If there
//! are no errors, the peer sends back its endorsement to the client"
//! (paper §2.1.1). Endorsers also commit validated blocks, keeping their
//! state database current.

use fabric_crypto::identity::{NodeId, SigningIdentity};
use fabric_statedb::{Height, StateDb, WriteBatch};

use crate::chaincode::{ChaincodeError, ChaincodeRegistry, SimulationResult};

/// Write set of one transaction: `(key, value)` pairs, paired with the
/// transaction's index within its block.
pub type TxWrites = (u64, Vec<(String, Vec<u8>)>);

/// An endorser peer: identity + its own state database + installed
/// chaincodes.
#[derive(Debug)]
pub struct EndorserPeer {
    identity: SigningIdentity,
    db: StateDb,
    chaincodes: ChaincodeRegistry,
    endorsements_served: u64,
}

/// Errors from proposal handling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EndorseError {
    /// The chaincode is not installed on this peer.
    ChaincodeNotInstalled(String),
    /// Simulation failed.
    Simulation(ChaincodeError),
}

impl std::fmt::Display for EndorseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EndorseError::ChaincodeNotInstalled(cc) => {
                write!(f, "chaincode {cc} is not installed")
            }
            EndorseError::Simulation(e) => write!(f, "simulation failed: {e}"),
        }
    }
}

impl std::error::Error for EndorseError {}

impl EndorserPeer {
    /// Creates an endorser with an empty state database.
    pub fn new(identity: SigningIdentity) -> Self {
        EndorserPeer {
            identity,
            db: StateDb::new(),
            chaincodes: ChaincodeRegistry::new(),
            endorsements_served: 0,
        }
    }

    /// Installs a chaincode.
    pub fn install_chaincode(&mut self, cc: Box<dyn crate::chaincode::Chaincode>) {
        self.chaincodes.install(cc);
    }

    /// The peer's signing identity (used by the client to collect the
    /// actual signature via `txflow::build_transaction`).
    pub fn identity(&self) -> &SigningIdentity {
        &self.identity
    }

    /// The peer's compact node id.
    pub fn node_id(&self) -> NodeId {
        self.identity.node_id()
    }

    /// The peer's state database (shared handle).
    pub fn state_db(&self) -> StateDb {
        self.db.clone()
    }

    /// Simulates a proposal: runs the chaincode against this peer's state
    /// database and returns the read/write sets.
    ///
    /// # Errors
    ///
    /// [`EndorseError::ChaincodeNotInstalled`] or a wrapped
    /// [`ChaincodeError`] from the chaincode itself.
    pub fn simulate(
        &mut self,
        chaincode: &str,
        function: &str,
        args: &[String],
    ) -> Result<SimulationResult, EndorseError> {
        let cc = self
            .chaincodes
            .get(chaincode)
            .ok_or_else(|| EndorseError::ChaincodeNotInstalled(chaincode.to_string()))?;
        let result = cc
            .execute(function, args, &self.db)
            .map_err(EndorseError::Simulation)?;
        self.endorsements_served += 1;
        Ok(result)
    }

    /// Applies the write sets of a validated block's valid transactions
    /// (endorsers commit blocks too, keeping simulation results fresh).
    pub fn commit_writes(&mut self, block_num: u64, tx_writes: &[TxWrites]) {
        for (tx_num, writes) in tx_writes {
            let mut batch = WriteBatch::new();
            for (k, v) in writes {
                batch.put(k, v);
            }
            self.db.apply(&batch, Height::new(block_num, *tx_num));
        }
    }

    /// Endorsements served so far.
    pub fn endorsements_served(&self) -> u64 {
        self.endorsements_served
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaincode::KvChaincode;
    use fabric_crypto::identity::{Msp, Role};

    fn make_endorser() -> EndorserPeer {
        let mut msp = Msp::new(1);
        let ident = msp.issue(0, Role::Peer, 0).unwrap();
        let mut e = EndorserPeer::new(ident);
        e.install_chaincode(Box::new(KvChaincode::new("kv")));
        e
    }

    #[test]
    fn simulate_returns_rwsets() {
        let mut e = make_endorser();
        let r = e.simulate("kv", "put", &["a".into(), "1".into()]).unwrap();
        assert_eq!(r.writes.len(), 1);
        assert_eq!(e.endorsements_served(), 1);
    }

    #[test]
    fn missing_chaincode_is_reported() {
        let mut e = make_endorser();
        assert_eq!(
            e.simulate("nope", "put", &[]).unwrap_err(),
            EndorseError::ChaincodeNotInstalled("nope".into())
        );
    }

    #[test]
    fn commit_updates_versions_seen_by_simulation() {
        let mut e = make_endorser();
        let before = e.simulate("kv", "get", &["a".into()]).unwrap();
        assert_eq!(before.reads[0].1, None);
        e.commit_writes(3, &[(1, vec![("a".into(), b"9".to_vec())])]);
        let after = e.simulate("kv", "get", &["a".into()]).unwrap();
        assert_eq!(after.reads[0].1, Some(Height::new(3, 1)));
    }
}
