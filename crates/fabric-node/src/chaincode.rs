//! Chaincode (smart contract) execution interface.
//!
//! "Transactions invoke smart contracts or chaincodes, which represent
//! the business logic and are instantiated on the endorser peers" (paper
//! §2.1.1). A chaincode here is a deterministic function from invocation
//! arguments and the current state to a read set (keys + observed
//! versions) and a write set — exactly what endorsement simulation
//! produces.

use std::collections::HashMap;
use std::fmt;

use fabric_statedb::{Height, StateDb};

/// Read set entry: key plus the version observed at simulation time.
pub type SimRead = (String, Option<Height>);
/// Write set entry: key plus new value.
pub type SimWrite = (String, Vec<u8>);

/// Result of simulating a transaction on an endorser.
#[derive(Debug, Clone, Default)]
pub struct SimulationResult {
    /// Keys read with their observed versions.
    pub reads: Vec<SimRead>,
    /// Keys written with new values.
    pub writes: Vec<SimWrite>,
}

/// Errors raised by chaincode execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaincodeError {
    /// The function name is not exported by this chaincode.
    UnknownFunction(String),
    /// Wrong number or shape of arguments.
    BadArguments(String),
    /// Business-logic failure (e.g. insufficient funds).
    Aborted(String),
}

impl fmt::Display for ChaincodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaincodeError::UnknownFunction(name) => write!(f, "unknown function {name}"),
            ChaincodeError::BadArguments(why) => write!(f, "bad arguments: {why}"),
            ChaincodeError::Aborted(why) => write!(f, "chaincode aborted: {why}"),
        }
    }
}

impl std::error::Error for ChaincodeError {}

/// A deterministic smart contract.
///
/// Implementations read through the provided [`StateDb`] and record every
/// access in the returned [`SimulationResult`]; they must not mutate the
/// database (writes land only at validation/commit).
pub trait Chaincode: Send + Sync {
    /// The chaincode name (rwset namespace).
    fn name(&self) -> &str;

    /// Simulates `function(args)` against `db`.
    ///
    /// # Errors
    ///
    /// Returns [`ChaincodeError`] when the invocation is malformed or the
    /// business logic rejects it.
    fn execute(
        &self,
        function: &str,
        args: &[String],
        db: &StateDb,
    ) -> Result<SimulationResult, ChaincodeError>;
}

/// Registry mapping chaincode names to instances (a peer can instantiate
/// several chaincodes).
#[derive(Default)]
pub struct ChaincodeRegistry {
    by_name: HashMap<String, Box<dyn Chaincode>>,
}

impl ChaincodeRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        ChaincodeRegistry::default()
    }

    /// Installs a chaincode; replaces any previous instance of the same
    /// name and returns it.
    pub fn install(&mut self, cc: Box<dyn Chaincode>) -> Option<Box<dyn Chaincode>> {
        self.by_name.insert(cc.name().to_string(), cc)
    }

    /// Looks up a chaincode.
    pub fn get(&self, name: &str) -> Option<&dyn Chaincode> {
        self.by_name.get(name).map(|b| b.as_ref())
    }

    /// Installed chaincode names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.by_name.keys().cloned().collect();
        names.sort();
        names
    }
}

impl fmt::Debug for ChaincodeRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ChaincodeRegistry({:?})", self.names())
    }
}

/// A trivial key-value chaincode used in tests and the quickstart
/// example: `put k v`, `get k`, `transfer a b amount` on u64 balances.
#[derive(Debug, Default)]
pub struct KvChaincode {
    name: String,
}

impl KvChaincode {
    /// Creates the chaincode under the given name.
    pub fn new(name: impl Into<String>) -> Self {
        KvChaincode { name: name.into() }
    }
}

impl Chaincode for KvChaincode {
    fn name(&self) -> &str {
        &self.name
    }

    fn execute(
        &self,
        function: &str,
        args: &[String],
        db: &StateDb,
    ) -> Result<SimulationResult, ChaincodeError> {
        let mut result = SimulationResult::default();
        match function {
            "put" => {
                let [key, value] = args else {
                    return Err(ChaincodeError::BadArguments("put k v".into()));
                };
                result.reads.push((key.clone(), db.get_version(key)));
                result.writes.push((key.clone(), value.as_bytes().to_vec()));
            }
            "get" => {
                let [key] = args else {
                    return Err(ChaincodeError::BadArguments("get k".into()));
                };
                result.reads.push((key.clone(), db.get_version(key)));
            }
            "transfer" => {
                let [from, to, amount] = args else {
                    return Err(ChaincodeError::BadArguments("transfer a b amount".into()));
                };
                let amount: u64 = amount
                    .parse()
                    .map_err(|_| ChaincodeError::BadArguments("amount must be u64".into()))?;
                let from_val = db.get(from);
                let to_val = db.get(to);
                let from_bal = parse_balance(from_val.as_ref().map(|v| v.value.as_slice()));
                let to_bal = parse_balance(to_val.as_ref().map(|v| v.value.as_slice()));
                if from_bal < amount {
                    return Err(ChaincodeError::Aborted(format!(
                        "insufficient funds: {from_bal} < {amount}"
                    )));
                }
                result
                    .reads
                    .push((from.clone(), from_val.map(|v| v.version)));
                result.reads.push((to.clone(), to_val.map(|v| v.version)));
                result
                    .writes
                    .push((from.clone(), (from_bal - amount).to_string().into_bytes()));
                result
                    .writes
                    .push((to.clone(), (to_bal + amount).to_string().into_bytes()));
            }
            other => return Err(ChaincodeError::UnknownFunction(other.to_string())),
        }
        Ok(result)
    }
}

/// Parses a decimal balance, treating missing/garbage as zero (matching
/// the smallbank benchmark's forgiving reads).
pub fn parse_balance(value: Option<&[u8]>) -> u64 {
    value
        .and_then(|v| std::str::from_utf8(v).ok())
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_statedb::WriteBatch;

    #[test]
    fn kv_put_reads_version_and_writes() {
        let db = StateDb::new();
        let cc = KvChaincode::new("kv");
        let r = cc.execute("put", &["a".into(), "1".into()], &db).unwrap();
        assert_eq!(r.reads, vec![("a".to_string(), None)]);
        assert_eq!(r.writes.len(), 1);
    }

    #[test]
    fn kv_transfer_moves_balance() {
        let db = StateDb::new();
        let mut b = WriteBatch::new();
        b.put("alice", b"100");
        b.put("bob", b"50");
        db.apply(&b, Height::new(1, 0));
        let cc = KvChaincode::new("kv");
        let r = cc
            .execute(
                "transfer",
                &["alice".into(), "bob".into(), "30".into()],
                &db,
            )
            .unwrap();
        assert_eq!(r.writes[0].1, b"70".to_vec());
        assert_eq!(r.writes[1].1, b"80".to_vec());
        assert_eq!(r.reads.len(), 2);
    }

    #[test]
    fn kv_transfer_insufficient_funds_aborts() {
        let db = StateDb::new();
        let cc = KvChaincode::new("kv");
        let err = cc
            .execute("transfer", &["a".into(), "b".into(), "1".into()], &db)
            .unwrap_err();
        assert!(matches!(err, ChaincodeError::Aborted(_)));
    }

    #[test]
    fn kv_rejects_unknown_function_and_bad_args() {
        let db = StateDb::new();
        let cc = KvChaincode::new("kv");
        assert!(matches!(
            cc.execute("mint", &[], &db).unwrap_err(),
            ChaincodeError::UnknownFunction(_)
        ));
        assert!(matches!(
            cc.execute("put", &["only-key".into()], &db).unwrap_err(),
            ChaincodeError::BadArguments(_)
        ));
    }

    #[test]
    fn registry_install_and_lookup() {
        let mut reg = ChaincodeRegistry::new();
        reg.install(Box::new(KvChaincode::new("kv")));
        assert!(reg.get("kv").is_some());
        assert!(reg.get("other").is_none());
        assert_eq!(reg.names(), vec!["kv"]);
        // Reinstall replaces.
        let old = reg.install(Box::new(KvChaincode::new("kv")));
        assert!(old.is_some());
    }

    #[test]
    fn parse_balance_tolerates_garbage() {
        assert_eq!(parse_balance(None), 0);
        assert_eq!(parse_balance(Some(b"123")), 123);
        assert_eq!(parse_balance(Some(b"bogus")), 0);
    }
}
