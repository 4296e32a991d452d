//! The correctness gate: after draining, every completed write is in
//! every execution replica's store with the value written, nothing else
//! is, and all replicas hold the same map.
//!
//! Keys are unique per write, so a key is present at most once. A write
//! applied twice leaves the same map, and `KvStore::ops_applied` cannot
//! expose it: checkpoint transfer between groups copies that counter,
//! and strong reads bump it only at the group that ordered them.

use spider_app::KvStore;

/// One execution replica's store as the gate sees it.
pub struct Replica<'a> {
    /// Names the replica in a failure message.
    pub label: String,
    /// The replica's key-value store.
    pub store: &'a KvStore,
}

/// Checks the drained stores against the completed writes.
///
/// `writes` lists `(key, value)` of every completed write; keys are
/// unique by construction. Up to `failed_ops` extra keys are tolerated:
/// an issued operation that never completed may still have executed.
pub fn check(
    writes: &[(Vec<u8>, Vec<u8>)],
    failed_ops: u64,
    replicas: &[Replica<'_>],
) -> Result<(), String> {
    let first = replicas.first().ok_or("no execution replicas")?;
    let reference = first.store.map_digest();
    for r in replicas {
        for (k, v) in writes {
            match r.store.get(k) {
                None => {
                    return Err(format!(
                        "{} is missing completed write {}",
                        r.label,
                        String::from_utf8_lossy(k)
                    ))
                }
                Some(stored) if stored != v.as_slice() => {
                    return Err(format!(
                        "{} holds a wrong value for {}",
                        r.label,
                        String::from_utf8_lossy(k)
                    ))
                }
                Some(_) => {}
            }
        }
        let keys = r.store.len() as u64;
        if keys > writes.len() as u64 + failed_ops {
            return Err(format!(
                "{} holds {keys} keys for {} completed and {failed_ops} failed operations",
                r.label,
                writes.len()
            ));
        }
        if r.store.map_digest() != reference {
            return Err(format!("map digest of {} diverges from {}", r.label, first.label));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider::Application;
    use spider_app::KvOp;

    fn store(writes: &[(Vec<u8>, Vec<u8>)]) -> KvStore {
        let mut s = KvStore::new();
        for (k, v) in writes {
            s.execute(&KvOp::put(k, v.clone()).encode());
        }
        s
    }

    fn writes() -> Vec<(Vec<u8>, Vec<u8>)> {
        (0..5).map(|i| (format!("k{i}").into_bytes(), vec![b'x'; 8])).collect()
    }

    fn replicas<'a>(stores: &'a [KvStore]) -> Vec<Replica<'a>> {
        stores
            .iter()
            .enumerate()
            .map(|(i, store)| Replica { label: format!("r{i}"), store })
            .collect()
    }

    #[test]
    fn identical_complete_stores_pass() {
        let w = writes();
        let stores = [store(&w), store(&w), store(&w)];
        assert_eq!(check(&w, 0, &replicas(&stores)), Ok(()));
    }

    #[test]
    fn missing_key_trips_the_gate() {
        let w = writes();
        let stores = [store(&w), store(&w[..4])];
        let err = check(&w, 0, &replicas(&stores)).unwrap_err();
        assert!(err.contains("r1 is missing completed write k4"), "{err}");
    }

    #[test]
    fn diverged_digest_trips_the_gate() {
        let w = writes();
        let mut odd = w.clone();
        odd.push((b"stray".to_vec(), vec![1]));
        let stores = [store(&w), store(&odd)];
        // One failed operation explains the stray key, but not the
        // divergence between replicas.
        let err = check(&w, 1, &replicas(&stores)).unwrap_err();
        assert!(err.contains("map digest of r1 diverges"), "{err}");
    }

    #[test]
    fn wrong_value_and_stray_key_trip_the_gate() {
        let w = writes();
        let mut bad = w.clone();
        bad[2].1 = vec![b'y'; 8];
        let stores = [store(&bad)];
        assert!(check(&w, 0, &replicas(&stores)).unwrap_err().contains("wrong value for k2"));

        // A stray key that no failed operation explains.
        let mut odd = w.clone();
        odd.push((b"stray".to_vec(), vec![1]));
        let stores = [store(&odd)];
        let err = check(&w, 0, &replicas(&stores)).unwrap_err();
        assert!(err.contains("r0 holds 6 keys for 5 completed and 0 failed"), "{err}");
    }
}
