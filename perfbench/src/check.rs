//! The correctness oracle: every response is checked against what the
//! generator knows the answer must be.

use omq_serve::json::{self, Json};

use crate::gen::{answers_json, Op, Workload};

/// Checks one response line for `op`. `Ok(())` means: answered `ok`,
/// complete (no `timed_out`, no `unknown`, no `sound_lower_bound`), and
/// equal to the expected answer.
pub fn check(w: &Workload, op: &Op, line: &str) -> Result<(), String> {
    let v: Json = json::parse(line).map_err(|e| format!("unparsable response: {e}"))?;
    if v.get("ok") != Some(&Json::Bool(true)) {
        return Err(format!("not ok: {}", clip(line)));
    }
    if v.get("timed_out").is_some() {
        return Err(format!("timed out: {}", clip(line)));
    }
    match op {
        Op::Register(i) => {
            let want = w.omqs[*i].name.as_str();
            match v.get("registered").and_then(Json::as_str) {
                Some(got) if got == want => Ok(()),
                _ => Err(format!("register {want}: {}", clip(line))),
            }
        }
        Op::Contains {
            lhs, rhs, expect, ..
        } => match v.get("verdict").and_then(Json::as_str) {
            Some(got) if got == expect.as_str() => Ok(()),
            got => Err(format!(
                "contains {lhs} {rhs}: expected {}, got {got:?}",
                expect.as_str()
            )),
        },
        // Before a store's first evaluation a mutation is a lazy version
        // append (`maintained:false`); after it, maintenance must finish.
        Op::Assert { .. } | Op::Retract { .. } => match (v.get("maintained"), v.get("complete")) {
            (Some(Json::Bool(false)), _) | (_, Some(Json::Bool(true))) => Ok(()),
            _ => Err(format!("mutation incomplete: {}", clip(line))),
        },
        Op::Evaluate { store, expect } => {
            if v.get("guarantee").and_then(Json::as_str) != Some("exact") {
                return Err(format!("evaluate {store}: not exact"));
            }
            if !line.contains(&answers_json(expect)) {
                return Err(format!(
                    "evaluate {store}: answers differ from the client-side closure ({} expected, count {:?})",
                    expect.len(),
                    v.get("count").and_then(Json::as_u64)
                ));
            }
            Ok(())
        }
    }
}

fn clip(line: &str) -> &str {
    match line.char_indices().nth(200) {
        Some((i, _)) => &line[..i],
        None => line,
    }
}
