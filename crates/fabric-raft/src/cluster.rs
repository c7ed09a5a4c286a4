//! In-memory Raft cluster harness with fault injection.
//!
//! Drives a set of [`RaftNode`]s over a simulated message bus with
//! configurable drop rates and partitions. Used by the ordering-service
//! tests and by the integration suite to exercise leader failover — the
//! multi-orderer deployment the paper describes ("Only the lead orderer
//! in multi-node Raft ordering service sends the block through our
//! protocol", §3.5).

use std::collections::{HashMap, HashSet, VecDeque};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{Envelope, NodeId, RaftConfig, RaftNode, RaftState};

/// A deterministic multi-node cluster simulation.
#[derive(Debug)]
pub struct Cluster {
    nodes: HashMap<NodeId, RaftNode>,
    in_flight: VecDeque<Envelope>,
    partitioned: HashSet<NodeId>,
    drop_rate: f64,
    rng: StdRng,
    delivered: u64,
    dropped: u64,
}

impl Cluster {
    /// Creates a cluster of `n` nodes with ids `1..=n`.
    pub fn new(n: usize, seed: u64) -> Self {
        let ids: Vec<NodeId> = (1..=n as NodeId).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut nodes = HashMap::new();
        for &id in &ids {
            let peers: Vec<NodeId> = ids.iter().copied().filter(|&p| p != id).collect();
            let mut node = RaftNode::new(id, peers, RaftConfig::default());
            node.randomize_deadline(&mut rng);
            nodes.insert(id, node);
        }
        Cluster {
            nodes,
            in_flight: VecDeque::new(),
            partitioned: HashSet::new(),
            drop_rate: 0.0,
            rng,
            delivered: 0,
            dropped: 0,
        }
    }

    /// Sets the probability that any message is silently dropped.
    pub fn set_drop_rate(&mut self, rate: f64) {
        self.drop_rate = rate.clamp(0.0, 1.0);
    }

    /// Isolates a node (messages to/from it are dropped).
    pub fn partition(&mut self, id: NodeId) {
        self.partitioned.insert(id);
    }

    /// One simulation round: tick every node, then deliver all in-flight
    /// messages (subject to partitions and drops).
    pub fn round(&mut self) {
        let ids: Vec<NodeId> = self.nodes.keys().copied().collect();
        for id in &ids {
            let out = self.nodes.get_mut(id).expect("node exists").tick();
            self.in_flight.extend(out);
        }
        self.deliver_all();
    }

    /// Runs rounds until a leader exists or `max_rounds` elapse; returns
    /// the leader id when elected.
    pub fn run_until_leader(&mut self, max_rounds: usize) -> Option<NodeId> {
        for _ in 0..max_rounds {
            self.round();
            if let Some(l) = self.leader() {
                return Some(l);
            }
        }
        None
    }

    /// The current unique leader, if exactly one node in the highest term
    /// considers itself leader.
    pub fn leader(&self) -> Option<NodeId> {
        let max_term = self.nodes.values().map(|n| n.term()).max()?;
        let leaders: Vec<NodeId> = self
            .nodes
            .values()
            .filter(|n| n.state() == RaftState::Leader && n.term() == max_term)
            .map(|n| n.id())
            .collect();
        if leaders.len() == 1 {
            Some(leaders[0])
        } else {
            None
        }
    }

    /// Proposes a command on the current leader.
    ///
    /// # Panics
    ///
    /// Panics when no leader exists; call [`Cluster::run_until_leader`]
    /// first.
    pub fn propose(&mut self, command: Vec<u8>) {
        let leader = self.leader().expect("no leader");
        let out = self
            .nodes
            .get_mut(&leader)
            .expect("leader exists")
            .propose(command)
            .expect("leader accepts proposals");
        self.in_flight.extend(out);
    }

    /// Access a node (e.g. to drain committed entries).
    pub fn node_mut(&mut self, id: NodeId) -> &mut RaftNode {
        self.nodes.get_mut(&id).expect("unknown node id")
    }

    /// Access a node immutably.
    pub fn node(&self, id: NodeId) -> &RaftNode {
        self.nodes.get(&id).expect("unknown node id")
    }

    /// Ids of all nodes.
    pub fn ids(&self) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = self.nodes.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// `(delivered, dropped)` message counters.
    pub fn message_stats(&self) -> (u64, u64) {
        (self.delivered, self.dropped)
    }

    fn deliver_all(&mut self) {
        // Deliver everything currently in flight, including cascades, but
        // bound the cascade to avoid infinite chatter in one round.
        let mut budget = 10_000;
        while let Some(env) = self.in_flight.pop_front() {
            if budget == 0 {
                break;
            }
            budget -= 1;
            if self.partitioned.contains(&env.from) || self.partitioned.contains(&env.to) {
                self.dropped += 1;
                continue;
            }
            if self.drop_rate > 0.0 && self.rng.gen_bool(self.drop_rate) {
                self.dropped += 1;
                continue;
            }
            self.delivered += 1;
            if let Some(node) = self.nodes.get_mut(&env.to) {
                let out = node.step(env.from, env.message);
                self.in_flight.extend(out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_node_cluster_elects_leader() {
        let mut c = Cluster::new(3, 42);
        let leader = c.run_until_leader(200).expect("leader elected");
        assert!(c.ids().contains(&leader));
    }

    #[test]
    fn committed_entries_replicate_everywhere() {
        let mut c = Cluster::new(3, 7);
        c.run_until_leader(200).unwrap();
        for i in 0..5u8 {
            c.propose(vec![i]);
        }
        for _ in 0..20 {
            c.round();
        }
        for id in c.ids() {
            let committed = c.node_mut(id).take_committed();
            assert_eq!(
                committed,
                vec![vec![0], vec![1], vec![2], vec![3], vec![4]],
                "node {id}"
            );
        }
    }

    #[test]
    fn leader_failover_preserves_committed_log() {
        let mut c = Cluster::new(5, 99);
        let first = c.run_until_leader(300).unwrap();
        c.propose(b"before".to_vec());
        for _ in 0..20 {
            c.round();
        }
        c.partition(first);
        let second = loop {
            c.round();
            if let Some(l) = c.leader() {
                if l != first {
                    break l;
                }
            }
        };
        assert_ne!(first, second);
        c.propose(b"after".to_vec());
        for _ in 0..30 {
            c.round();
        }
        let committed = c.node_mut(second).take_committed();
        assert_eq!(committed, vec![b"before".to_vec(), b"after".to_vec()]);
    }

    #[test]
    fn cluster_survives_lossy_network() {
        let mut c = Cluster::new(3, 1234);
        c.set_drop_rate(0.2);
        let _ = c.run_until_leader(500).expect("leader despite losses");
        c.propose(b"x".to_vec());
        for _ in 0..100 {
            c.round();
        }
        // At least the leader has committed the entry.
        let leader = c.leader().unwrap();
        assert!(c.node(leader).commit_index() >= 1);
        let (_, dropped) = c.message_stats();
        assert!(dropped > 0, "drops actually happened");
    }

    #[test]
    fn at_most_one_leader_per_term() {
        // Run many rounds and check the invariant at each step.
        let mut c = Cluster::new(5, 2024);
        for _ in 0..300 {
            c.round();
            let mut by_term: HashMap<u64, usize> = HashMap::new();
            for id in c.ids() {
                let n = c.node(id);
                if n.state() == RaftState::Leader {
                    *by_term.entry(n.term()).or_default() += 1;
                }
            }
            for (term, leaders) in by_term {
                assert!(leaders <= 1, "term {term} has {leaders} leaders");
            }
        }
    }
}
