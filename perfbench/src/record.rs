//! `record.json`: the exact counts each workload produced at the record
//! seed, and the per-layer figures of a traced run, kept beside the
//! benchmark so every run can report drift from them.
//!
//! `--record` rewrites this workload's `counters` (and, on a traced run,
//! `layers`) and leaves every other field as it is.

use std::collections::BTreeMap;

use datalog_trace::Json;

use crate::jsonread;

/// The counter block is always computed at this seed, whatever `--seed`
/// the run measures, so drift compares like with like.
pub const RECORD_SEED: u64 = 1;

pub fn path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("record.json")
}

fn load() -> Json {
    std::fs::read_to_string(path())
        .ok()
        .and_then(|t| jsonread::parse(&t).ok())
        .unwrap_or_else(Json::obj)
}

/// The recorded counters of `workload`, if any.
pub fn recorded(workload: &str) -> Option<BTreeMap<String, u64>> {
    let doc = load();
    let Some(Json::Obj(pairs)) = doc.get("workloads")?.get(workload)?.get("counters") else {
        return None;
    };
    Some(
        pairs
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), jsonread::num(v)? as u64)))
            .collect(),
    )
}

/// Keys whose value differs, or that only one side has.
pub fn drift(recorded: &BTreeMap<String, u64>, now: &BTreeMap<String, u64>) -> Vec<String> {
    let mut keys: Vec<&String> = recorded.keys().chain(now.keys()).collect();
    keys.sort_unstable();
    keys.dedup();
    keys.into_iter()
        .filter(|k| recorded.get(*k) != now.get(*k))
        .cloned()
        .collect()
}

/// Replace (or append) `key` in an object.
fn put(obj: &mut Json, key: &str, value: Json) {
    if let Json::Obj(pairs) = obj {
        match pairs.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => pairs.push((key.to_string(), value)),
        }
    }
}

fn child<'a>(obj: &'a mut Json, key: &str) -> &'a mut Json {
    if obj.get(key).is_none() {
        put(obj, key, Json::obj());
    }
    match obj {
        Json::Obj(pairs) => {
            &mut pairs
                .iter_mut()
                .find(|(k, _)| k == key)
                .expect("just inserted")
                .1
        }
        _ => unreachable!("record documents are objects"),
    }
}

pub fn write(
    workload: &str,
    counters: &BTreeMap<String, u64>,
    layers: Option<Json>,
) -> std::io::Result<()> {
    let mut doc = load();
    put(&mut doc, "record_seed", Json::UInt(RECORD_SEED));
    let entry = child(child(&mut doc, "workloads"), workload);
    put(
        entry,
        "counters",
        Json::Obj(
            counters
                .iter()
                .map(|(k, v)| (k.clone(), Json::UInt(*v)))
                .collect(),
        ),
    );
    if let Some(layers) = layers {
        put(entry, "layers", layers);
    }
    std::fs::write(path(), doc.to_pretty() + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_counts_changed_missing_and_new_keys() {
        let a: BTreeMap<String, u64> = [("x", 1), ("y", 2), ("z", 3)]
            .map(|(k, v)| (k.to_string(), v))
            .into();
        let b: BTreeMap<String, u64> = [("x", 1), ("y", 5), ("w", 0)]
            .map(|(k, v)| (k.to_string(), v))
            .into();
        assert_eq!(drift(&a, &b), vec!["w", "y", "z"]);
        assert!(drift(&a, &a).is_empty());
    }

    #[test]
    fn put_replaces_in_place() {
        let mut o = Json::obj().with("a", 1u64).with("b", 2u64);
        put(&mut o, "a", Json::UInt(9));
        put(&mut o, "c", Json::UInt(3));
        assert_eq!(
            o,
            Json::obj().with("a", 9u64).with("b", 2u64).with("c", 3u64)
        );
        child(&mut o, "d");
        assert_eq!(o.get("d"), Some(&Json::obj()));
    }
}
