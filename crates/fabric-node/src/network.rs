//! Fabric network assembly: organizations, peers, clients, orderer.
//!
//! Builds the paper's experimental topology (Figure 8): N organizations,
//! each with a certificate authority and endorser peer(s), a single
//! orderer, and clients submitting transactions — everything a
//! validator peer (software-only or BMac) consumes.

use fabric_crypto::identity::{Msp, Role, SigningIdentity};
use fabric_policy::Policy;
use fabric_protos::messages::Block;

use crate::chaincode::{Chaincode, SimulationResult};
use crate::client::{Client, ClientError};
use crate::endorser::{EndorserPeer, TxWrites};
use crate::orderer::{OrdererConfig, OrderingService};

/// The network's one channel.
const CHANNEL: &str = "mychannel";

/// Builder for [`FabricNetwork`]. Every organization runs one endorser
/// peer.
///
/// ```
/// use fabric_node::network::FabricNetworkBuilder;
/// use fabric_policy::parse;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let network = FabricNetworkBuilder::new()
///     .orgs(2)
///     .block_size(4)
///     .chaincode("kv", parse("2-outof-2 orgs")?)
///     .build();
/// assert_eq!(network.num_orgs(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct FabricNetworkBuilder {
    orgs: u8,
    clients: usize,
    block_size: usize,
    chaincodes: Vec<(String, Policy)>,
    seed: u64,
}

impl Default for FabricNetworkBuilder {
    fn default() -> Self {
        FabricNetworkBuilder {
            orgs: 2,
            clients: 1,
            block_size: 150,
            chaincodes: Vec::new(),
            seed: 7,
        }
    }
}

impl FabricNetworkBuilder {
    /// Creates a builder with the paper's default topology (2 orgs, one
    /// endorser each, single orderer, block size 150).
    pub fn new() -> Self {
        FabricNetworkBuilder::default()
    }

    /// Number of organizations.
    pub fn orgs(mut self, n: u8) -> Self {
        self.orgs = n;
        self
    }

    /// Number of clients (Caliper ran 16).
    pub fn clients(mut self, n: usize) -> Self {
        self.clients = n.max(1);
        self
    }

    /// Transactions per block.
    pub fn block_size(mut self, n: usize) -> Self {
        self.block_size = n.max(1);
        self
    }

    /// Registers a chaincode name with its endorsement policy. The
    /// chaincode implementation is installed on peers via
    /// [`FabricNetwork::install_chaincode`].
    pub fn chaincode(mut self, name: impl Into<String>, policy: Policy) -> Self {
        self.chaincodes.push((name.into(), policy));
        self
    }

    /// RNG seed for nonces.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Assembles the network: issues identities, spawns peers/clients,
    /// boots the ordering service.
    pub fn build(self) -> FabricNetwork {
        let mut msp = Msp::new(self.orgs);
        let endorsers = (0..self.orgs)
            .map(|org| EndorserPeer::new(msp.issue(org, Role::Peer, 0).expect("issue endorser")))
            .collect();
        let orderer_ident = msp.issue(0, Role::Orderer, 0).expect("issue orderer");
        let ordering = OrderingService::new(
            orderer_ident,
            OrdererConfig {
                block_size: self.block_size,
                ..OrdererConfig::default()
            },
        );
        let clients = (0..self.clients)
            .map(|i| {
                // Round-robin clients across orgs in usize space: the old
                // `(i as u8) % orgs` truncated i BEFORE the modulo, so in
                // a network with ≥ 17 orgs client 256 wrapped back to
                // org 0 and silently *collided* with an earlier client's
                // identity (the PR 4 truncation class). The remainder
                // fits u8 because orgs does; the per-org sequence is a
                // 4-bit protocol field, so exhausting it must be a loud
                // error naming the capacity, not a wrap.
                let orgs = usize::from(self.orgs.max(1));
                let org = (i % orgs) as u8;
                let seq = u8::try_from(i / orgs).expect("seq bounded by issue() below");
                let ident = msp.issue(org, Role::Client, seq).unwrap_or_else(|e| {
                    panic!(
                        "client {i} does not fit the identity scheme \
                         ({orgs} orgs × 16 client slots): {e}"
                    )
                });
                Client::new(ident, CHANNEL, self.seed ^ (i as u64) << 16)
            })
            .collect();
        FabricNetwork {
            msp,
            endorsers,
            clients,
            ordering,
            chaincodes: self.chaincodes,
        }
    }
}

/// A complete Fabric network minus the validator peers (which are the
/// subject of the experiments and attach separately).
#[derive(Debug)]
pub struct FabricNetwork {
    msp: Msp,
    /// One endorser per organization, endorser `i` in org `i`.
    endorsers: Vec<EndorserPeer>,
    clients: Vec<Client>,
    ordering: OrderingService,
    chaincodes: Vec<(String, Policy)>,
}

impl FabricNetwork {
    /// Number of organizations.
    pub fn num_orgs(&self) -> u8 {
        self.msp.num_orgs()
    }

    /// The membership service provider.
    pub fn msp(&self) -> &Msp {
        &self.msp
    }

    /// The endorsement policy registered for a chaincode.
    pub fn policy(&self, chaincode: &str) -> Option<&Policy> {
        self.chaincodes
            .iter()
            .find(|(name, _)| name == chaincode)
            .map(|(_, p)| p)
    }

    /// All registered `(chaincode, policy)` pairs.
    pub fn chaincodes(&self) -> &[(String, Policy)] {
        &self.chaincodes
    }

    /// Installs a chaincode implementation on every endorser via the
    /// provided factory.
    pub fn install_chaincode<F>(&mut self, factory: F)
    where
        F: Fn() -> Box<dyn Chaincode>,
    {
        for e in &mut self.endorsers {
            e.install_chaincode(factory());
        }
    }

    /// The lead orderer's identity.
    pub fn orderer_identity(&self) -> &SigningIdentity {
        self.ordering.identity()
    }

    /// A shared handle to endorser 0's state database (useful as the
    /// reference state in tests).
    pub fn reference_db(&self) -> fabric_statedb::StateDb {
        self.endorsers[0].state_db()
    }

    /// Submits one invocation through the full flow: pick endorsers from
    /// the policy, simulate, sign, order. Returns any blocks cut.
    ///
    /// # Errors
    ///
    /// [`ClientError`] from endorsement; unknown chaincodes are a
    /// [`ClientError::Endorse`] failure.
    ///
    /// # Panics
    ///
    /// Panics if `client` is out of range.
    pub fn submit_invocation(
        &mut self,
        client: usize,
        chaincode: &str,
        function: &str,
        args: &[String],
    ) -> Result<Vec<Block>, ClientError> {
        let policy = self
            .chaincodes
            .iter()
            .find(|(name, _)| name == chaincode)
            .map(|(_, p)| p.clone())
            .unwrap_or_else(|| Policy::k_out_of_n_orgs(1, 1));
        // One endorsement per principal org in the policy (the paper's
        // workloads carry one endorsement per organization listed).
        let principal_orgs: Vec<u8> = policy.principals().iter().map(|p| p.org).collect();
        let mut indices: Vec<usize> = principal_orgs
            .iter()
            .map(|&org| usize::from(org))
            .filter(|&i| i < self.endorsers.len())
            .collect();
        indices.sort_unstable();
        indices.dedup();
        let client_ref = &mut self.clients[client];
        // Simulate on each selected endorser and compare.
        let mut sims: Vec<SimulationResult> = Vec::with_capacity(indices.len());
        for &i in &indices {
            sims.push(
                self.endorsers[i]
                    .simulate(chaincode, function, args)
                    .map_err(ClientError::Endorse)?,
            );
        }
        if sims.is_empty() {
            return Err(ClientError::NoEndorsers);
        }
        let first = sims[0].clone();
        if sims[1..]
            .iter()
            .any(|s| s.reads != first.reads || s.writes != first.writes)
        {
            return Err(ClientError::EndorsementMismatch);
        }
        // Borrow the selected endorsers mutably for signing.
        let mut selected: Vec<&mut EndorserPeer> = Vec::with_capacity(indices.len());
        let mut rest: &mut [EndorserPeer] = &mut self.endorsers;
        let mut consumed = 0usize;
        for &i in &indices {
            let (_, tail) = rest.split_at_mut(i - consumed);
            let (head, tail) = tail.split_at_mut(1);
            selected.push(&mut head[0]);
            rest = tail;
            consumed = i + 1;
        }
        let built = client_ref.assemble(&selected, chaincode, first);
        Ok(self.ordering.submit(built.envelope))
    }

    /// Applies committed writes to every endorser's state database
    /// (endorsers commit blocks too).
    pub fn commit_to_endorsers(&mut self, block_num: u64, tx_writes: &[TxWrites]) {
        for e in &mut self.endorsers {
            e.commit_writes(block_num, tx_writes);
        }
    }

    /// Cuts a partial block (Fabric's batch timeout).
    pub fn cut_partial_block(&mut self) -> Option<Block> {
        self.ordering.cut_partial_block()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaincode::KvChaincode;
    use fabric_policy::parse;
    use fabric_protos::txflow::decode_block;

    fn kv_network(block_size: usize) -> FabricNetwork {
        let mut n = FabricNetworkBuilder::new()
            .orgs(2)
            .block_size(block_size)
            .chaincode("kv", parse("2-outof-2 orgs").unwrap())
            .build();
        n.install_chaincode(|| Box::new(KvChaincode::new("kv")));
        n
    }

    /// Regression (PR 4 truncation class): client→org assignment must
    /// round-robin in usize space. The old `(i as u8) % orgs` truncated
    /// the client index first, so in a 20-org network client 256 wrapped
    /// to org 0 and client 256 reused the identity already issued to
    /// client 240 — two clients silently signing as the same node.
    #[test]
    fn client_org_assignment_survives_the_u8_boundary() {
        let net = FabricNetworkBuilder::new()
            .orgs(20)
            .clients(280)
            .chaincode("kv", parse("2-outof-2 orgs").unwrap())
            .build();
        let mut seen = std::collections::HashSet::new();
        for (i, client) in net.clients.iter().enumerate() {
            let id = client.identity().node_id();
            assert_eq!(id.org, (i % 20) as u8, "client {i} org untruncated");
            assert_eq!(id.seq, (i / 20) as u8, "client {i} seq");
            assert!(seen.insert(id), "client {i} reuses identity {id}");
        }
    }

    /// The per-org client sequence is a 4-bit protocol field; exceeding
    /// 16 clients per org must fail loudly, naming the capacity — never
    /// wrap into a colliding identity.
    #[test]
    #[should_panic(expected = "does not fit the identity scheme")]
    fn client_overflow_per_org_is_a_loud_error() {
        let _ = FabricNetworkBuilder::new()
            .orgs(2)
            .clients(33) // 17 for org 0: seq 16 does not fit 4 bits
            .chaincode("kv", parse("2-outof-2 orgs").unwrap())
            .build();
    }

    #[test]
    fn full_flow_produces_decodable_blocks() {
        let mut net = kv_network(2);
        assert!(net
            .submit_invocation(0, "kv", "put", &["a".into(), "1".into()])
            .unwrap()
            .is_empty());
        let blocks = net
            .submit_invocation(0, "kv", "put", &["b".into(), "2".into()])
            .unwrap();
        assert_eq!(blocks.len(), 1);
        let decoded = decode_block(&blocks[0].marshal()).unwrap();
        assert_eq!(decoded.txs.len(), 2);
        // 2of2 policy -> 2 endorsements per tx
        assert_eq!(decoded.txs[0].endorsements.len(), 2);
        // Orderer signature verifies.
        assert!(decoded
            .orderer_cert
            .public_key
            .verify(&decoded.orderer_signed_message, &decoded.orderer_signature)
            .is_ok());
    }

    #[test]
    fn policy_drives_endorser_selection() {
        let mut net = FabricNetworkBuilder::new()
            .orgs(3)
            .block_size(1)
            .chaincode("kv", parse("2of3").unwrap())
            .build();
        net.install_chaincode(|| Box::new(KvChaincode::new("kv")));
        let blocks = net
            .submit_invocation(0, "kv", "put", &["x".into(), "1".into()])
            .unwrap();
        let decoded = decode_block(&blocks[0].marshal()).unwrap();
        // 2of3 policy transactions carry 3 endorsements (one per org).
        assert_eq!(decoded.txs[0].endorsements.len(), 3);
    }

    #[test]
    fn endorser_dbs_stay_in_sync_through_commits() {
        let mut net = kv_network(1);
        let blocks = net
            .submit_invocation(0, "kv", "put", &["k".into(), "1".into()])
            .unwrap();
        assert_eq!(blocks.len(), 1);
        net.commit_to_endorsers(0, &[(0, vec![("k".into(), b"1".to_vec())])]);
        // Next invocation reads the committed version on all endorsers —
        // no mismatch error.
        let blocks = net
            .submit_invocation(0, "kv", "put", &["k".into(), "2".into()])
            .unwrap();
        assert_eq!(blocks.len(), 1);
    }

    #[test]
    fn unknown_chaincode_fails_cleanly() {
        let mut net = kv_network(1);
        let err = net
            .submit_invocation(0, "ghost", "put", &["a".into(), "1".into()])
            .unwrap_err();
        assert!(matches!(err, ClientError::Endorse(_)));
    }
}
