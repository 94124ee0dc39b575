//! Chrome `trace_event` JSON exporter (Perfetto-loadable).
//!
//! Emits the JSON Array Format of the Trace Event specification: a flat
//! array of event objects. Tracks are laid out as
//!
//! * `pid 0` — "routers": one thread (`tid` = node index) per router,
//!   carrying regular-pipeline events (`link` complete events plus
//!   instants for inject/vc_alloc/sa_grant/eject/consume/stall);
//! * `pid 1` — "fastpass lanes": one thread per router, carrying bypass
//!   overlay events (`lane` complete events plus bypass_enter/exit
//!   instants), so bypass and regular traversals are visually and
//!   programmatically distinguishable (`cat` is `bypass` vs `regular`).
//!
//! Timestamps are simulated cycles written as microseconds (1 cycle =
//! 1 µs), the natural unit for Perfetto's timeline. The export path is
//! cold — it runs after a simulation, never inside it — so it builds a
//! [`Content`] tree and leans on the JSON writer for well-formedness.

use crate::event::TraceEvent;
use crate::Tracer;
use serde::Content;

const PID_ROUTERS: u64 = 0;
const PID_LANES: u64 = 1;

fn s(v: &str) -> Content {
    Content::Str(v.to_string())
}

fn u(v: u64) -> Content {
    Content::U128(v as u128)
}

fn meta(name: &str, pid: u64, tid: Option<u64>, label: String) -> Content {
    let mut fields = vec![
        ("name".to_string(), s(name)),
        ("ph".to_string(), s("M")),
        ("pid".to_string(), u(pid)),
    ];
    if let Some(t) = tid {
        fields.push(("tid".to_string(), u(t)));
    }
    fields.push((
        "args".to_string(),
        Content::Map(vec![("name".to_string(), Content::Str(label))]),
    ));
    Content::Map(fields)
}

/// Renders the tracer's recorded events as Chrome trace JSON.
///
/// Returns the JSON text (an array of trace event objects). Load it at
/// `ui.perfetto.dev` or `chrome://tracing`.
pub fn chrome_trace_json(tracer: &Tracer) -> String {
    let mut events: Vec<Content> = Vec::new();
    // Track naming metadata.
    events.push(meta(
        "process_name",
        PID_ROUTERS,
        None,
        "routers (regular pipeline)".to_string(),
    ));
    events.push(meta(
        "process_name",
        PID_LANES,
        None,
        "fastpass lanes (bypass overlay)".to_string(),
    ));
    for n in 0..tracer.num_nodes() {
        events.push(meta(
            "thread_name",
            PID_ROUTERS,
            Some(n as u64),
            format!("router {n}"),
        ));
        events.push(meta(
            "thread_name",
            PID_LANES,
            Some(n as u64),
            format!("lane @ router {n}"),
        ));
    }

    for rec in tracer.records_in_order() {
        let (pid, cat) = if rec.event.is_bypass() {
            (PID_LANES, "bypass")
        } else {
            (PID_ROUTERS, "regular")
        };
        let mut args: Vec<(String, Content)> = vec![("pkt".to_string(), u(rec.event.pkt().raw()))];
        let ph = match rec.event {
            TraceEvent::LinkTraverse { link, .. } | TraceEvent::BypassLink { link, .. } => {
                args.push(("link".to_string(), u(link.index() as u64)));
                "X"
            }
            TraceEvent::Inject { vc, .. } => {
                args.push(("vc".to_string(), u(vc as u64)));
                "i"
            }
            TraceEvent::VcAlloc {
                out_port, out_vc, ..
            } => {
                args.push(("out_port".to_string(), u(out_port as u64)));
                args.push(("out_vc".to_string(), u(out_vc as u64)));
                "i"
            }
            TraceEvent::SaGrant { out_port, .. } => {
                args.push(("out_port".to_string(), u(out_port as u64)));
                "i"
            }
            TraceEvent::BypassEnter { dst, .. } => {
                args.push(("dst".to_string(), u(dst.index() as u64)));
                "i"
            }
            TraceEvent::BypassExit { outcome, .. } => {
                args.push(("outcome".to_string(), s(outcome.label())));
                "i"
            }
            TraceEvent::Stall { cause, .. } => {
                args.push(("cause".to_string(), s(cause.label())));
                "i"
            }
            TraceEvent::Eject { .. } | TraceEvent::Consume { .. } => "i",
        };
        let mut fields = vec![
            ("name".to_string(), s(rec.event.name())),
            ("cat".to_string(), s(cat)),
            ("ph".to_string(), s(ph)),
            ("ts".to_string(), u(rec.cycle)),
            ("pid".to_string(), u(pid)),
            ("tid".to_string(), u(rec.node.index() as u64)),
        ];
        if ph == "X" {
            fields.push(("dur".to_string(), u(1)));
        }
        if ph == "i" {
            // Instant scope: thread.
            fields.push(("s".to_string(), s("t")));
        }
        fields.push(("args".to_string(), Content::Map(args)));
        events.push(Content::Map(fields));
    }

    serde_json::to_string(&Content::Seq(events)).expect("content tree always serializes")
}

/// The identifying fields of one event that passed
/// [`check_trace_structure`], in document order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventHeader {
    /// Event name.
    pub name: String,
    /// Phase: one of `X`, `i`, `M`, `C`.
    pub ph: char,
    /// Process (track group) id.
    pub pid: u64,
    /// Thread (track) id; absent only on `process_name` metadata.
    pub tid: Option<u64>,
}

/// Validates the structure shared by every Chrome `trace_event`
/// document this workspace writes — the flit traces above, their
/// merged telemetry counter tracks, and the sweep daemon's flight
/// export: a top-level array whose every element is an object with a
/// string `name`, a phase `ph` of `X`/`i`/`M`/`C`, an integral `pid`,
/// and an integral `tid` (optional only on `process_name` metadata).
/// Complete (`X`), instant (`i`) and counter (`C`) events need an
/// integral `ts`; complete events a `dur` of at least 1; instants a
/// scope `s`; counters an `args` object of series.
///
/// Returns every event's [`EventHeader`] so format-specific checks can
/// layer on top without re-parsing.
///
/// # Errors
///
/// A message naming the first offending event and what is wrong with
/// it.
pub fn check_trace_structure(json: &str) -> Result<Vec<EventHeader>, String> {
    let doc: Content = serde_json::from_str(json).map_err(|e| format!("not valid JSON: {e:?}"))?;
    let Content::Seq(events) = doc else {
        return Err("top level must be a JSON array of trace events".to_string());
    };
    let mut headers = Vec::with_capacity(events.len());
    for (i, ev) in events.iter().enumerate() {
        let Content::Map(entries) = ev else {
            return Err(format!("event #{i} is not a JSON object"));
        };
        let get = |key: &str| entries.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let name = get("name")
            .and_then(Content::as_str)
            .ok_or_else(|| format!("event #{i} has no string `name`"))?;
        let ph = match get("ph").and_then(Content::as_str) {
            Some("X") => 'X',
            Some("i") => 'i',
            Some("M") => 'M',
            Some("C") => 'C',
            Some(other) => {
                return Err(format!(
                    "event #{i} ({name}) has unknown phase {other:?} (expected X, i, M or C)"
                ))
            }
            None => return Err(format!("event #{i} ({name}) has no string `ph`")),
        };
        let pid = get("pid")
            .and_then(Content::as_u64)
            .ok_or_else(|| format!("event #{i} ({name}) has no integral `pid`"))?;
        let tid = get("tid").and_then(Content::as_u64);
        if tid.is_none() && !(ph == 'M' && name == "process_name") {
            return Err(format!("event #{i} ({name}) has no integral `tid`"));
        }
        if ph != 'M' && get("ts").and_then(Content::as_u64).is_none() {
            return Err(format!("event #{i} ({name}) has no integral `ts`"));
        }
        match ph {
            'X' if get("dur").and_then(Content::as_u64).unwrap_or(0) == 0 => {
                return Err(format!("complete event #{i} ({name}) needs `dur` >= 1"));
            }
            'i' if get("s").and_then(Content::as_str).is_none() => {
                return Err(format!("instant event #{i} ({name}) has no scope `s`"));
            }
            'C' if !matches!(get("args"), Some(Content::Map(_))) => {
                return Err(format!(
                    "counter event #{i} ({name}) needs an `args` object of series"
                ));
            }
            _ => {}
        }
        headers.push(EventHeader {
            name: name.to_string(),
            ph,
            pid,
            tid,
        });
    }
    Ok(headers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{BypassOutcome, StallCause};
    use crate::{TraceConfig, TraceLevel};
    use noc_core::packet::{MessageClass, Packet, PacketStore};
    use noc_core::topology::{Direction, Mesh, NodeId};

    #[test]
    fn export_is_parseable_and_distinguishes_tracks() {
        let mesh = Mesh::new(2, 2);
        let mut store = PacketStore::new();
        let pkt = store.insert(Packet::new(
            NodeId::new(0),
            NodeId::new(1),
            MessageClass::Request,
            1,
            0,
        ));
        let link = mesh
            .link(NodeId::new(0), Direction::East)
            .expect("link exists");
        let cfg = TraceConfig {
            level: TraceLevel::Full,
            ..TraceConfig::default()
        };
        let mut t = Tracer::new(&cfg, 4);
        t.set_now(5);
        t.push_event(NodeId::new(0), TraceEvent::LinkTraverse { pkt, link });
        t.push_event(NodeId::new(0), TraceEvent::BypassLink { pkt, link });
        t.push_event(
            NodeId::new(1),
            TraceEvent::Stall {
                pkt,
                cause: StallCause::SaLost,
            },
        );
        t.push_event(
            NodeId::new(1),
            TraceEvent::BypassExit {
                pkt,
                outcome: BypassOutcome::Ejected,
            },
        );
        let json = chrome_trace_json(&t);
        let events = check_trace_structure(&json).expect("export passes the structural check");
        let named = |n: &str| events.iter().any(|e| e.name == n);
        assert!(named("link"), "regular traversal exported");
        assert!(named("lane"), "bypass traversal exported");
        assert!(named("stall"));
        assert!(events.iter().all(|e| matches!(e.ph, 'X' | 'i' | 'M')));
    }

    #[test]
    fn structural_check_names_each_broken_rule() {
        let err = |json: &str| check_trace_structure(json).expect_err(json);
        assert!(err(r#"[{"name":"link","ph":"X","pid":0,"ts":1,"dur":1}]"#).contains("`tid`"));
        assert!(
            err(r#"[{"name":"link","ph":"X","pid":0,"tid":0,"ts":1,"dur":0}]"#)
                .contains("`dur` >= 1")
        );
        assert!(err(r#"[{"name":"inject","ph":"i","pid":0,"tid":0,"ts":1}]"#).contains("scope"));
        assert!(err(r#"[{"name":"link","ph":"X","pid":0,"tid":0,"dur":1}]"#).contains("`ts`"));
        assert!(err(r#"[{"name":"c","ph":"C","pid":2,"tid":0,"ts":1}]"#).contains("`args`"));
        assert!(err(r#"[{"name":"x","ph":"M","pid":-1,"tid":0}]"#).contains("`pid`"));
        // `tid` may be absent on process-scoped metadata only.
        let ok = r#"[{"name":"process_name","ph":"M","pid":3,"args":{"name":"d"}}]"#;
        let events = check_trace_structure(ok).expect("valid");
        assert_eq!(events[0].tid, None);
        assert!(err(r#"[{"name":"thread_name","ph":"M","pid":3}]"#).contains("`tid`"));
    }
}
