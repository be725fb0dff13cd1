//! The correctness checks, one per workload, run on every op of every round.
//!
//! Each is a pure function of the program's output and a reference computed
//! once in set-up, so a unit test can prove it trips. A failed check is a
//! failed op.

use crate::http::Reply;

/// What one `collect_1d` op must reproduce from the set-up run.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CollectOutcome {
    /// Polls that failed after retries; the scenario has no faults, so 0.
    pub polls_failed: u64,
    /// Bundles sealed into the store.
    pub sealed: u64,
    /// Sandwiches `scan_store` finds in the sealed store.
    pub findings: u64,
}

/// Socket workloads: the status and a body byte-equal to what
/// `Engine::evaluate` produced for the same request (200, or the engine's own
/// 404 for a pool the generator never drew).
pub fn body_matches(reply: &Reply, want_status: u16, want: &[u8]) -> Result<(), String> {
    if reply.status != want_status {
        return Err(format!("status {}, reference {want_status}", reply.status));
    }
    if reply.body != want {
        let at = reply
            .body
            .iter()
            .zip(want)
            .position(|(a, b)| a != b)
            .unwrap_or(reply.body.len().min(want.len()));
        return Err(format!(
            "body differs from the reference at byte {at} ({} vs {} bytes)",
            reply.body.len(),
            want.len()
        ));
    }
    Ok(())
}

/// The string value of `"field":"…"` in a JSON body.
fn string_field<'a>(body: &'a str, field: &str) -> Option<&'a str> {
    let needle = format!("\"{field}\":\"");
    let start = body.find(&needle)? + needle.len();
    let end = body[start..].find('"')? + start;
    Some(&body[start..end])
}

/// Slot of a live cursor `v1.<generation>.<slot hex>.<bundle id>`.
fn cursor_slot(cursor: &str) -> Option<u64> {
    u64::from_str_radix(cursor.split('.').nth(2)?, 16).ok()
}

/// `live_tail`: the page is a 200 that carries the planted sandwich and a
/// cursor that moved forward to it. Returns the new cursor.
pub fn live_page_ok(
    reply: &Reply,
    planted_id: &str,
    planted_slot: u64,
    previous_cursor: &str,
) -> Result<String, String> {
    if reply.status != 200 {
        return Err(format!("status {}", reply.status));
    }
    let body = std::str::from_utf8(&reply.body).map_err(|_| "body is not UTF-8".to_string())?;
    if !body.contains(&format!("\"bundle_id\":\"{planted_id}\"")) {
        return Err(format!("planted sandwich {planted_id} is not on the page"));
    }
    let cursor = string_field(body, "cursor").ok_or("page has no cursor")?;
    let (now, before) = (cursor_slot(cursor), cursor_slot(previous_cursor));
    if now != Some(planted_slot) || now <= before {
        return Err(format!(
            "cursor {cursor} did not advance from {previous_cursor} to slot {planted_slot}"
        ));
    }
    Ok(cursor.to_string())
}

/// `analyze_250k`: every planted sandwich found and nothing else, and the
/// report and index frame byte-identical to the set-up pass.
pub fn analysis_matches(
    findings: u64,
    planted: u64,
    report: &[u8],
    want_report: &[u8],
    frame: &[u8],
    want_frame: &[u8],
) -> Result<(), String> {
    if findings != planted {
        return Err(format!("{findings} findings, {planted} sandwiches planted"));
    }
    if report != want_report {
        return Err("report JSON differs from the set-up pass".into());
    }
    if frame != want_frame {
        return Err("index frame differs from the set-up pass".into());
    }
    Ok(())
}

/// `collect_1d`: no failed poll, and the same sealed and found counts as
/// the set-up run of the same scenario.
pub fn collect_matches(got: &CollectOutcome, want: &CollectOutcome) -> Result<(), String> {
    if got.polls_failed != 0 {
        return Err(format!("{} polls failed", got.polls_failed));
    }
    if got != want {
        return Err(format!("collected {got:?}, set-up run collected {want:?}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reply(body: &str) -> Reply {
        Reply {
            status: 200,
            body: body.as_bytes().to_vec(),
        }
    }

    #[test]
    fn one_flipped_body_byte_trips_the_body_check() {
        let want = br#"{"generation":"ab","total":3}"#;
        let mut got = reply(std::str::from_utf8(want).unwrap());
        assert_eq!(body_matches(&got, 200, want), Ok(()));
        got.body[20] ^= 1;
        assert!(body_matches(&got, 200, want)
            .unwrap_err()
            .contains("byte 20"));
        got.body[20] ^= 1;
        got.status = 503;
        assert!(body_matches(&got, 200, want).is_err());
        got.status = 200;
        got.body.pop();
        assert!(body_matches(&got, 200, want).is_err());
    }

    const PAGE: &str = r#"{"generation":"00000000000000aa","tip_slot":1729536,"cursor":"v1.00000000000000aa.00000000001a6400.PlantedId","rows":[{"day":8,"slot":1729536,"bundle_id":"PlantedId"}]}"#;
    const BEFORE: &str = "v1.0000000000000000.00000000001a63ff.1111";

    #[test]
    fn a_dropped_planted_id_or_a_stuck_cursor_trips_the_live_check() {
        let cursor = live_page_ok(&reply(PAGE), "PlantedId", 0x1a6400, BEFORE).unwrap();
        assert_eq!(cursor, "v1.00000000000000aa.00000000001a6400.PlantedId");
        let dropped = PAGE.replace(r#"{"day":8,"slot":1729536,"bundle_id":"PlantedId"}"#, "");
        assert!(
            live_page_ok(&reply(&dropped), "PlantedId", 0x1a6400, BEFORE)
                .unwrap_err()
                .contains("not on the page")
        );
        // The cursor echoes the caller's position: nothing new was served.
        assert!(live_page_ok(&reply(PAGE), "PlantedId", 0x1a6400, &cursor).is_err());
        assert!(live_page_ok(&reply(PAGE), "PlantedId", 0x1a6401, BEFORE).is_err());
    }

    #[test]
    fn a_corrupted_report_field_or_frame_byte_trips_the_analysis_check() {
        let report = br#"{"days":8,"non_sol_sandwiches":0,"len3_with_details":10073}"#;
        let frame = b"SWQIX01\nframe-bytes";
        assert_eq!(
            analysis_matches(5016, 5016, report, report, frame, frame),
            Ok(())
        );
        let corrupt = br#"{"days":8,"non_sol_sandwiches":0,"len3_with_details":10074}"#;
        assert!(analysis_matches(5016, 5016, corrupt, report, frame, frame).is_err());
        assert!(
            analysis_matches(5016, 5016, report, report, b"SWQIX01\nframe-bytez", frame).is_err()
        );
        assert!(analysis_matches(5015, 5016, report, report, frame, frame)
            .unwrap_err()
            .contains("5015 findings"));
    }

    #[test]
    fn a_failed_poll_or_a_different_count_trips_the_collect_check() {
        let want = CollectOutcome {
            polls_failed: 0,
            sealed: 3677,
            findings: 9,
        };
        assert_eq!(collect_matches(&want, &want), Ok(()));
        let failed = CollectOutcome {
            polls_failed: 1,
            ..want.clone()
        };
        assert!(collect_matches(&failed, &failed).is_err());
        let short = CollectOutcome {
            sealed: 3676,
            ..want.clone()
        };
        assert!(collect_matches(&short, &want).is_err());
    }
}
