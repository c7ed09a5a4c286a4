//! The drm (digital rights management) benchmark chaincode.
//!
//! "The drm application implements typical functions of managing digital
//! assets" (paper §4.2) and "has less accesses to database" than
//! smallbank (§4.3, Figure 13) — registrations write one key, purchases
//! read one and write one.

use fabric_node::chaincode::{Chaincode, ChaincodeError, SimulationResult};
use fabric_statedb::StateDb;

/// The drm chaincode.
#[derive(Debug, Default)]
pub struct Drm;

/// Key of a content record.
pub fn content_key(content_id: &str) -> String {
    format!("content_{content_id}")
}

/// Key of a license record.
pub fn license_key(content_id: &str, user: &str) -> String {
    format!("license_{content_id}_{user}")
}

impl Drm {
    /// Creates the chaincode.
    pub fn new() -> Self {
        Drm
    }
}

impl Chaincode for Drm {
    fn name(&self) -> &str {
        "drm"
    }

    fn execute(
        &self,
        function: &str,
        args: &[String],
        db: &StateDb,
    ) -> Result<SimulationResult, ChaincodeError> {
        let mut result = SimulationResult::default();
        match function {
            // register_content(content_id, owner, price): 0 reads 1 write
            "register_content" => {
                let [content_id, owner, price] = args else {
                    return Err(ChaincodeError::BadArguments(
                        "register_content content_id owner price".into(),
                    ));
                };
                let record = format!("{owner}:{price}:registered");
                result
                    .writes
                    .push((content_key(content_id), record.into_bytes()));
            }
            // purchase_license(content_id, user): 1 read 1 write
            "purchase_license" => {
                let [content_id, user] = args else {
                    return Err(ChaincodeError::BadArguments(
                        "purchase_license content_id user".into(),
                    ));
                };
                let content = db.get(&content_key(content_id));
                if content.is_none() {
                    return Err(ChaincodeError::Aborted(format!(
                        "content {content_id} not registered"
                    )));
                }
                result
                    .reads
                    .push((content_key(content_id), content.map(|v| v.version)));
                result
                    .writes
                    .push((license_key(content_id, user), b"licensed".to_vec()));
            }
            // transfer_ownership(content_id, new_owner): 1 read 1 write
            "transfer_ownership" => {
                let [content_id, new_owner] = args else {
                    return Err(ChaincodeError::BadArguments(
                        "transfer_ownership content_id new_owner".into(),
                    ));
                };
                let content = db.get(&content_key(content_id));
                let Some(existing) = content else {
                    return Err(ChaincodeError::Aborted(format!(
                        "content {content_id} not registered"
                    )));
                };
                let price = String::from_utf8_lossy(&existing.value)
                    .split(':')
                    .nth(1)
                    .unwrap_or("0")
                    .to_string();
                result
                    .reads
                    .push((content_key(content_id), Some(existing.version)));
                let record = format!("{new_owner}:{price}:transferred");
                result
                    .writes
                    .push((content_key(content_id), record.into_bytes()));
            }
            other => return Err(ChaincodeError::UnknownFunction(other.to_string())),
        }
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_statedb::{Height, WriteBatch};

    #[test]
    fn register_is_write_only() {
        let db = StateDb::new();
        let r = Drm::new()
            .execute(
                "register_content",
                &["song1".into(), "alice".into(), "10".into()],
                &db,
            )
            .unwrap();
        assert_eq!(r.reads.len(), 0);
        assert_eq!(r.writes.len(), 1);
    }

    #[test]
    fn purchase_reads_content_writes_license() {
        let db = StateDb::new();
        let mut b = WriteBatch::new();
        b.put(content_key("song1"), b"alice:10:registered");
        db.apply(&b, Height::new(1, 0));
        let r = Drm::new()
            .execute("purchase_license", &["song1".into(), "bob".into()], &db)
            .unwrap();
        assert_eq!(r.reads.len(), 1);
        assert_eq!(r.writes.len(), 1);
        assert_eq!(r.writes[0].0, license_key("song1", "bob"));
    }

    #[test]
    fn purchase_of_unregistered_aborts() {
        let db = StateDb::new();
        assert!(matches!(
            Drm::new()
                .execute("purchase_license", &["ghost".into(), "bob".into()], &db)
                .unwrap_err(),
            ChaincodeError::Aborted(_)
        ));
    }

    #[test]
    fn transfer_keeps_price() {
        let db = StateDb::new();
        let mut b = WriteBatch::new();
        b.put(content_key("song1"), b"alice:10:registered");
        db.apply(&b, Height::new(1, 0));
        let r = Drm::new()
            .execute("transfer_ownership", &["song1".into(), "carol".into()], &db)
            .unwrap();
        assert_eq!(r.writes[0].1, b"carol:10:transferred".to_vec());
    }

    #[test]
    fn drm_touches_fewer_keys_than_smallbank() {
        // Figure 13's premise.
        let db = StateDb::new();
        let mut b = WriteBatch::new();
        b.put(content_key("c"), b"o:1:registered");
        db.apply(&b, Height::new(1, 0));
        let drm = Drm::new()
            .execute("purchase_license", &["c".into(), "u".into()], &db)
            .unwrap();
        assert!(drm.reads.len() + drm.writes.len() <= 2);
    }
}
