//! Correctness checks. A check that fails marks its operation failed and
//! the whole run incorrect.

use crate::keys::PartitionKey;
use cubesfc::obs::{json_parse, JsonValue};
use cubesfc::serve::SERVE_SCHEMA;

/// Every element is assigned to one of `nproc` parts; returns the part
/// sizes.
pub fn assigned(assignment: &[u32], k: usize, nproc: usize) -> Result<Vec<usize>, String> {
    if assignment.len() != k {
        return Err(format!(
            "assignment has {} entries, want {k}",
            assignment.len()
        ));
    }
    let mut sizes = vec![0usize; nproc];
    for (e, &p) in assignment.iter().enumerate() {
        let slot = sizes
            .get_mut(p as usize)
            .ok_or_else(|| format!("element {e} in part {p} of {nproc}"))?;
        *slot += 1;
    }
    Ok(sizes)
}

/// [`assigned`], and no part is empty.
pub fn partition_valid(assignment: &[u32], k: usize, nproc: usize) -> Result<(), String> {
    match assigned(assignment, k, nproc)?.iter().position(|&s| s == 0) {
        Some(p) => Err(format!("part {p} of {nproc} is empty")),
        None => Ok(()),
    }
}

/// The METIS-family balance cap: no part heavier than
/// `max(ceil(target × ub), target + max_vwgt)` with
/// `target = total / nproc`, the rule the graph partitioners enforce.
pub fn within_weight_cap(
    part_weights: &[u64],
    total: u64,
    ub: f64,
    max_vwgt: u64,
) -> Result<(), String> {
    let target = total / part_weights.len().max(1) as u64;
    let cap = ((target as f64 * ub).ceil() as u64).max(target + max_vwgt);
    match part_weights.iter().enumerate().find(|(_, &w)| w > cap) {
        Some((p, w)) => Err(format!("part {p} weighs {w}, cap {cap}")),
        None => Ok(()),
    }
}

/// A response body carries the service schema.
pub fn has_schema(body: &[u8]) -> bool {
    body.starts_with(format!("{{\"schema\":\"{SERVE_SCHEMA}\"").as_bytes())
}

/// A served body is byte-identical to the one computed directly.
pub fn same_body(served: &[u8], direct: &[u8]) -> Result<(), String> {
    if served == direct {
        return Ok(());
    }
    let at = served
        .iter()
        .zip(direct)
        .position(|(a, b)| a != b)
        .unwrap_or(served.len().min(direct.len()));
    Err(format!(
        "body differs from the direct backend at byte {at} ({} vs {} bytes)",
        served.len(),
        direct.len()
    ))
}

fn parse(body: &[u8]) -> Result<JsonValue, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    json_parse(text).map_err(|e| e.to_string())
}

/// A rebalance response's `part_loads` has one entry per part and sums
/// to the weights sent (up to summation-order rounding).
pub fn rebalance_loads(body: &[u8], nproc: usize, weight_sum: f64) -> Result<(), String> {
    let doc = parse(body)?;
    let loads = doc
        .get("part_loads")
        .and_then(JsonValue::as_arr)
        .ok_or("no part_loads array")?;
    if loads.len() != nproc {
        return Err(format!("{} part loads, want {nproc}", loads.len()));
    }
    let mut sum = 0.0;
    for l in loads {
        sum += l.as_f64().ok_or("non-numeric part load")?;
    }
    if (sum - weight_sum).abs() > 1e-9 * weight_sum.abs().max(1.0) {
        return Err(format!("part loads sum to {sum}, weights to {weight_sum}"));
    }
    Ok(())
}

/// A partition response echoes its request and reports a positive
/// edgecut, which it returns.
pub fn partition_echo(body: &[u8], key: &PartitionKey) -> Result<u64, String> {
    let doc = parse(body)?;
    let num = |name: &str| doc.get(name).and_then(JsonValue::as_u64);
    let method = doc.get("method").and_then(JsonValue::as_str);
    if num("ne") != Some(key.ne as u64)
        || num("nproc") != Some(key.nproc as u64)
        || num("seed") != Some(key.seed)
        || method.is_none()
    {
        return Err(format!("response does not echo request {key:?}"));
    }
    doc.get("report")
        .and_then(|r| r.get("edgecut"))
        .and_then(JsonValue::as_u64)
        .filter(|&cut| cut > 0)
        .ok_or_else(|| "report has no positive edgecut".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubesfc::obs::Registry;
    use cubesfc::serve::{Backend, PartitionRequest, RebalanceStepRequest};
    use cubesfc::EngineBackend;

    #[test]
    fn rejects_corrupted_partitions() {
        let good = [0, 1, 2, 0, 1, 2];
        assert!(partition_valid(&good, 6, 3).is_ok());
        assert!(partition_valid(&good[..5], 6, 3).is_err());
        assert!(partition_valid(&[0, 1, 3, 0, 1, 2], 6, 3).is_err());
        assert!(partition_valid(&[0, 1, 1, 0, 1, 1], 6, 3).is_err());
        assert_eq!(assigned(&[0, 1, 1, 0, 1, 1], 6, 3).unwrap(), vec![2, 4, 0]);
        assert!(assigned(&[0, 1, 3, 0, 1, 2], 6, 3).is_err());
        assert!(within_weight_cap(&[10, 10, 10], 30, 1.03, 1).is_ok());
        assert!(within_weight_cap(&[11, 10, 9], 30, 1.03, 1).is_ok());
        assert!(within_weight_cap(&[12, 10, 8], 30, 1.03, 1).is_err());
    }

    #[test]
    fn rejects_mismatched_bodies() {
        // A private registry: the checks under test must not depend on,
        // or record into, the process-wide one.
        let registry = Registry::new();
        let backend = EngineBackend::new();
        let key = PartitionKey {
            ne: 8,
            nproc: 12,
            method: "kway",
            seed: 3,
        };
        let req = PartitionRequest {
            ne: 8,
            nproc: 12,
            method: "kway".into(),
            seed: 3,
            include_assignment: true,
        };
        let body = {
            let _span = registry.span("backend");
            backend.partition(&req).unwrap().into_bytes()
        };
        assert!(has_schema(&body));
        assert!(same_body(&body, &body).is_ok());
        assert!(partition_echo(&body, &key).unwrap() > 0);
        let mut corrupt = body.clone();
        let last_digit = corrupt.iter().rposition(u8::is_ascii_digit).unwrap();
        corrupt[last_digit] = if corrupt[last_digit] == b'0' {
            b'1'
        } else {
            b'0'
        };
        assert!(same_body(&corrupt, &body).is_err());
        assert!(same_body(&body[..body.len() - 1], &body).is_err());
        let other = PartitionKey { seed: 4, ..key };
        assert!(partition_echo(&body, &other).is_err());
        assert!(!has_schema(b"{\"error\":1}"));

        let reb = RebalanceStepRequest {
            ne: 8,
            nproc: 6,
            seed: 1,
            weights: (0..384).map(|i| 1.0 + (i % 7) as f64 / 16.0).collect(),
        };
        let sum: f64 = reb.weights.iter().sum();
        let body = backend.rebalance_step(&reb).unwrap().into_bytes();
        assert!(rebalance_loads(&body, 6, sum).is_ok());
        assert!(rebalance_loads(&body, 6, sum + 1.0).is_err());
        assert!(rebalance_loads(&body, 5, sum).is_err());
        assert_eq!(registry.snapshot().timers["backend"].count, 1);
    }
}
