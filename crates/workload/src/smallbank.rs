//! The smallbank benchmark chaincode (Hyperledger Caliper benchmarks).
//!
//! "The smallbank application implements typical functions of a banking
//! application" (paper §4.2). Six operations over per-customer checking
//! and savings balances, plus the paper's split-payment extension
//! ("we modified smallbank application to include the functionality of
//! split payment to n accounts, resulting in variable number of database
//! reads and writes", §4.3 / Figure 12c).

use fabric_node::chaincode::{parse_balance, Chaincode, ChaincodeError, SimulationResult};
use fabric_statedb::StateDb;

/// The smallbank chaincode.
#[derive(Debug, Default)]
pub struct Smallbank;

/// Key of a customer's checking balance.
pub fn checking_key(customer: &str) -> String {
    format!("{customer}_checking")
}

/// Key of a customer's savings balance.
pub fn savings_key(customer: &str) -> String {
    format!("{customer}_savings")
}

impl Smallbank {
    /// Creates the chaincode.
    pub fn new() -> Self {
        Smallbank
    }

    fn read(db: &StateDb, key: &str, result: &mut SimulationResult) -> u64 {
        let val = db.get(key);
        let balance = parse_balance(val.as_ref().map(|v| v.value.as_slice()));
        result.reads.push((key.to_string(), val.map(|v| v.version)));
        balance
    }

    fn write(key: String, amount: u64, result: &mut SimulationResult) {
        result.writes.push((key, amount.to_string().into_bytes()));
    }
}

impl Chaincode for Smallbank {
    fn name(&self) -> &str {
        "smallbank"
    }

    fn execute(
        &self,
        function: &str,
        args: &[String],
        db: &StateDb,
    ) -> Result<SimulationResult, ChaincodeError> {
        let mut result = SimulationResult::default();
        match function {
            // create_account(customer, checking, savings)
            "create_account" => {
                let [customer, checking, savings] = args else {
                    return Err(ChaincodeError::BadArguments(
                        "create_account customer checking savings".into(),
                    ));
                };
                let c: u64 = parse_amount(checking)?;
                let s: u64 = parse_amount(savings)?;
                Self::write(checking_key(customer), c, &mut result);
                Self::write(savings_key(customer), s, &mut result);
            }
            // transact_savings(customer, amount): savings += amount
            "transact_savings" => {
                let [customer, amount] = args else {
                    return Err(ChaincodeError::BadArguments(
                        "transact_savings customer amount".into(),
                    ));
                };
                let amount = parse_amount(amount)?;
                let bal = Self::read(db, &savings_key(customer), &mut result);
                Self::write(savings_key(customer), bal + amount, &mut result);
            }
            // deposit_checking(customer, amount): checking += amount
            "deposit_checking" => {
                let [customer, amount] = args else {
                    return Err(ChaincodeError::BadArguments(
                        "deposit_checking customer amount".into(),
                    ));
                };
                let amount = parse_amount(amount)?;
                let bal = Self::read(db, &checking_key(customer), &mut result);
                Self::write(checking_key(customer), bal + amount, &mut result);
            }
            // send_payment(src, dst, amount): checking transfer
            "send_payment" => {
                let [src, dst, amount] = args else {
                    return Err(ChaincodeError::BadArguments(
                        "send_payment src dst amount".into(),
                    ));
                };
                let amount = parse_amount(amount)?;
                let src_bal = Self::read(db, &checking_key(src), &mut result);
                let dst_bal = Self::read(db, &checking_key(dst), &mut result);
                if src_bal < amount {
                    return Err(ChaincodeError::Aborted(format!(
                        "insufficient checking: {src_bal} < {amount}"
                    )));
                }
                Self::write(checking_key(src), src_bal - amount, &mut result);
                Self::write(checking_key(dst), dst_bal + amount, &mut result);
            }
            // write_check(customer, amount): checking -= amount
            "write_check" => {
                let [customer, amount] = args else {
                    return Err(ChaincodeError::BadArguments(
                        "write_check customer amount".into(),
                    ));
                };
                let amount = parse_amount(amount)?;
                let bal = Self::read(db, &checking_key(customer), &mut result);
                Self::write(
                    checking_key(customer),
                    bal.saturating_sub(amount),
                    &mut result,
                );
            }
            // amalgamate(src, dst): move all of src's savings+checking
            // into dst's checking.
            "amalgamate" => {
                let [src, dst] = args else {
                    return Err(ChaincodeError::BadArguments("amalgamate src dst".into()));
                };
                let savings = Self::read(db, &savings_key(src), &mut result);
                let checking = Self::read(db, &checking_key(src), &mut result);
                let dst_bal = Self::read(db, &checking_key(dst), &mut result);
                Self::write(savings_key(src), 0, &mut result);
                Self::write(checking_key(src), 0, &mut result);
                Self::write(checking_key(dst), dst_bal + savings + checking, &mut result);
            }
            // send_payment_split(src, amount, dst1, dst2, ...): the
            // Figure 12c extension — 1+n reads, 1+n writes.
            "send_payment_split" => {
                if args.len() < 3 {
                    return Err(ChaincodeError::BadArguments(
                        "send_payment_split src amount dst...".into(),
                    ));
                }
                let src = &args[0];
                let amount = parse_amount(&args[1])?;
                let dsts = &args[2..];
                let src_bal = Self::read(db, &checking_key(src), &mut result);
                let total = amount * dsts.len() as u64;
                if src_bal < total {
                    return Err(ChaincodeError::Aborted(format!(
                        "insufficient checking: {src_bal} < {total}"
                    )));
                }
                let mut writes = vec![(checking_key(src), src_bal - total)];
                for dst in dsts {
                    let bal = Self::read(db, &checking_key(dst), &mut result);
                    writes.push((checking_key(dst), bal + amount));
                }
                for (k, v) in writes {
                    Self::write(k, v, &mut result);
                }
            }
            other => return Err(ChaincodeError::UnknownFunction(other.to_string())),
        }
        Ok(result)
    }
}

fn parse_amount(s: &str) -> Result<u64, ChaincodeError> {
    s.parse()
        .map_err(|_| ChaincodeError::BadArguments(format!("bad amount {s:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_statedb::{Height, WriteBatch};

    fn seeded_db() -> StateDb {
        let db = StateDb::new();
        let mut b = WriteBatch::new();
        b.put(checking_key("alice"), b"1000");
        b.put(savings_key("alice"), b"500");
        b.put(checking_key("bob"), b"100");
        b.put(savings_key("bob"), b"50");
        db.apply(&b, Height::new(1, 0));
        db
    }

    #[test]
    fn create_account_writes_two_keys_reads_none() {
        let db = StateDb::new();
        let r = Smallbank::new()
            .execute(
                "create_account",
                &["carol".into(), "10".into(), "20".into()],
                &db,
            )
            .unwrap();
        assert_eq!(r.reads.len(), 0);
        assert_eq!(r.writes.len(), 2);
    }

    #[test]
    fn send_payment_is_2r2w() {
        let db = seeded_db();
        let r = Smallbank::new()
            .execute(
                "send_payment",
                &["alice".into(), "bob".into(), "100".into()],
                &db,
            )
            .unwrap();
        assert_eq!(r.reads.len(), 2);
        assert_eq!(r.writes.len(), 2);
        assert_eq!(r.writes[0].1, b"900".to_vec());
        assert_eq!(r.writes[1].1, b"200".to_vec());
    }

    #[test]
    fn send_payment_insufficient_aborts() {
        let db = seeded_db();
        let err = Smallbank::new()
            .execute(
                "send_payment",
                &["bob".into(), "alice".into(), "9999".into()],
                &db,
            )
            .unwrap_err();
        assert!(matches!(err, ChaincodeError::Aborted(_)));
    }

    #[test]
    fn amalgamate_moves_everything() {
        let db = seeded_db();
        let r = Smallbank::new()
            .execute("amalgamate", &["alice".into(), "bob".into()], &db)
            .unwrap();
        assert_eq!(r.reads.len(), 3);
        assert_eq!(r.writes.len(), 3);
        // bob checking = 100 + 500 + 1000
        assert_eq!(r.writes[2].1, b"1600".to_vec());
    }

    #[test]
    fn split_payment_scales_rw_sets() {
        let db = seeded_db();
        // 3 destinations -> 4 reads, 4 writes (Figure 12c's "rw" knob).
        let r = Smallbank::new()
            .execute(
                "send_payment_split",
                &[
                    "alice".into(),
                    "10".into(),
                    "bob".into(),
                    "bob".into(),
                    "bob".into(),
                ],
                &db,
            )
            .unwrap();
        assert_eq!(r.reads.len(), 4);
        assert_eq!(r.writes.len(), 4);
    }

    #[test]
    fn unknown_function_rejected() {
        let db = StateDb::new();
        assert!(matches!(
            Smallbank::new().execute("mine", &[], &db).unwrap_err(),
            ChaincodeError::UnknownFunction(_)
        ));
    }

    #[test]
    fn balances_tolerate_missing_accounts() {
        let db = StateDb::new();
        let r = Smallbank::new()
            .execute("deposit_checking", &["ghost".into(), "5".into()], &db)
            .unwrap();
        assert_eq!(r.reads[0].1, None);
        assert_eq!(r.writes[0].1, b"5".to_vec());
    }
}
