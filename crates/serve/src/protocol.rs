//! The wire protocol: one JSON request per line in, one JSON response
//! per line out.
//!
//! Requests are JSON objects with a `kind` member naming one of the
//! request kinds (see [`REQUEST_KINDS`]); responses are JSON objects with
//! an `ok` boolean. A failed request yields
//! `{"ok":false,"error":{"kind":..,"message":..}}` with a typed error
//! kind — malformed input of any sort is answered, never fatal. Blank
//! lines are ignored.
//!
//! ```text
//! → {"kind":"query","structure":"circ02","dims":[[30,40],[25,25],...]}
//! ← {"ok":true,"kind":"query","structure":"circ02","id":13}
//! ```
//!
//! # Request ids and pipelining
//!
//! A request may carry an `id` member (a non-negative integer). The
//! response to a tagged request echoes it as `req` — `id` is already
//! taken by query answers — which lets a client keep many requests in
//! flight on one connection and match responses out of order:
//!
//! ```text
//! → {"id":7,"kind":"query","structure":"circ02","dims":[[30,40],...]}
//! ← {"ok":true,"kind":"query","req":7,"structure":"circ02","id":13}
//! ```
//!
//! Per connection, ids must be strictly increasing (the natural shape of
//! a pipelining client, and O(1) for the server to enforce); once a
//! connection has sent a tagged request, every later request must be
//! tagged too. Violations are answered with a typed `bad_id` error. The
//! full framing contract lives in `crates/serve/PROTOCOL.md`.

use mps_geom::{Coord, Dims, DimsError};
use serde::{Map, Serialize, Value};

/// Every request kind the server understands, as spelled on the wire.
pub const REQUEST_KINDS: [&str; 9] = [
    "query",
    "batch_query",
    "instantiate",
    "reload",
    "stats",
    "list_structures",
    "metrics",
    "trace",
    "refine",
];

/// A parsed, not-yet-validated client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Look up the placement id covering one dimension vector.
    Query {
        /// Registry name of the target structure.
        structure: String,
        /// One `(w, h)` pair per block. Decoded leniently — values are
        /// validated against the addressed structure by the server.
        dims: Dims,
    },
    /// Look up a whole stream of dimension vectors in one round trip.
    BatchQuery {
        /// Registry name of the target structure.
        structure: String,
        /// The dimension vectors, answered element-wise.
        dims_list: Vec<Dims>,
        /// The request carried `"encoding":"bin"`: answer with a binary
        /// frame (see [`crate::frame`]) instead of a JSON line.
        binary: bool,
    },
    /// Materialize the placement (block coordinates) for one vector,
    /// falling back to the backup packing in uncovered space.
    Instantiate {
        /// Registry name of the target structure.
        structure: String,
        /// One `(w, h)` pair per block.
        dims: Dims,
    },
    /// Rescan the registry's artifact directory and hot-swap the served
    /// set; the answer cache is invalidated all-or-nothing on success.
    Reload,
    /// Server and per-structure counters.
    Stats,
    /// Sorted names of every served structure.
    ListStructures,
    /// The full telemetry snapshot: per-stage latency histograms per
    /// lane, per-structure query-dimension heatmaps, cache/connection/
    /// refinement gauges.
    Metrics,
    /// Drain the slow-request ring: the N worst requests since the last
    /// `trace`, each with its per-stage time breakdown.
    Trace,
    /// Traffic-adaptive refinement: trigger one synchronous refinement
    /// pass now (`"action":"run"`, the default) or report the
    /// refinement counters without running anything
    /// (`"action":"status"`). Works whether or not the background
    /// refinement worker is enabled.
    Refine {
        /// Run a pass (`true`) or only report status (`false`).
        run: bool,
        /// Restrict the pass to this structure instead of letting the
        /// heat-based candidate selection pick one.
        structure: Option<String>,
    },
}

impl Request {
    /// The request's kind as spelled on the wire.
    #[must_use]
    pub fn kind_str(&self) -> &'static str {
        match self {
            Request::Query { .. } => "query",
            Request::BatchQuery { .. } => "batch_query",
            Request::Instantiate { .. } => "instantiate",
            Request::Reload => "reload",
            Request::Stats => "stats",
            Request::ListStructures => "list_structures",
            Request::Metrics => "metrics",
            Request::Trace => "trace",
            Request::Refine { .. } => "refine",
        }
    }

    /// The structure the request addresses, when it addresses one.
    #[must_use]
    pub fn structure_name(&self) -> Option<&str> {
        match self {
            Request::Query { structure, .. }
            | Request::BatchQuery { structure, .. }
            | Request::Instantiate { structure, .. } => Some(structure),
            Request::Refine { structure, .. } => structure.as_deref(),
            _ => None,
        }
    }
}

/// Typed reason a request was refused. The wire spelling is
/// [`ErrorKind::as_str`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The line is not syntactically valid JSON.
    Parse,
    /// Valid JSON that does not follow the request schema (not an
    /// object, missing/ill-typed members, malformed dims pairs).
    Protocol,
    /// The `kind` member names no known request kind.
    UnknownKind,
    /// The addressed structure is not in the registry.
    UnknownStructure,
    /// A dimension vector's length differs from the structure's block
    /// count.
    BadArity,
    /// A dimension value escapes the structure's designer bounds (only
    /// instantiation rejects this — the fallback packing guarantees
    /// legality only inside the bounds; queries answer `id: null`).
    OutOfBounds,
    /// The request id violates the tagged-framing contract: not a
    /// non-negative integer, not strictly increasing on its connection,
    /// or missing after the connection went tagged.
    BadId,
    /// The server is at its connection ceiling
    /// ([`max_connections`](crate::ServerConfig::max_connections)); the
    /// connection is answered with this single line and closed.
    Overloaded,
    /// A handler failed internally; the server keeps serving.
    Internal,
}

impl ErrorKind {
    /// The wire spelling of this error kind.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Parse => "parse",
            ErrorKind::Protocol => "protocol",
            ErrorKind::UnknownKind => "unknown_kind",
            ErrorKind::UnknownStructure => "unknown_structure",
            ErrorKind::BadArity => "bad_arity",
            ErrorKind::OutOfBounds => "out_of_bounds",
            ErrorKind::BadId => "bad_id",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::Internal => "internal",
        }
    }
}

/// A typed request failure, rendered as the `error` member of a
/// `{"ok":false}` response line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestError {
    /// What class of failure this is.
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub message: String,
}

impl RequestError {
    /// Creates a typed request failure.
    #[must_use]
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        Self {
            kind,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind.as_str(), self.message)
    }
}

/// A parsed request line: the optional pipelining tag plus the request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// The request id, when the line was tagged.
    pub id: Option<u64>,
    /// The request itself.
    pub request: Request,
}

/// A failed [`parse_envelope`]: the typed refusal plus the request id,
/// when one could still be recovered from the line (so the error
/// response can be tagged and a pipelining client can correlate it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvelopeError {
    /// The request id, when the line carried a well-formed one.
    pub id: Option<u64>,
    /// The typed refusal.
    pub error: RequestError,
}

/// Parses one request line. Schema errors come back typed; nothing here
/// panics on any input (the underlying parser is depth-capped).
///
/// # Errors
///
/// Returns a [`RequestError`] of kind `parse`, `protocol`, `bad_id` or
/// `unknown_kind` (structure-dependent validation — unknown names, arity,
/// bounds — happens later, in the server, where the registry is known).
/// Any request id is parsed and discarded; use [`parse_envelope`] where
/// the tag matters.
pub fn parse_request(line: &str) -> Result<Request, RequestError> {
    parse_envelope(line)
        .map(|envelope| envelope.request)
        .map_err(|e| e.error)
}

/// Parses one request line including its pipelining tag. The `id`
/// member, when present, must be a non-negative integer; connection-level
/// rules (strictly increasing, sticky tagged mode) are the server's job.
///
/// # Errors
///
/// Returns an [`EnvelopeError`] whose `error` is typed `parse`,
/// `protocol`, `bad_id` or `unknown_kind`, and whose `id` is the
/// request's tag when one was well-formed (schema errors on tagged lines
/// stay correlatable).
pub fn parse_envelope(line: &str) -> Result<Envelope, EnvelopeError> {
    let untagged = |error| EnvelopeError { id: None, error };
    let value = serde_json::parse(line)
        .map_err(|e| untagged(RequestError::new(ErrorKind::Parse, e.to_string())))?;
    let Some(obj) = value.as_object() else {
        return Err(untagged(RequestError::new(
            ErrorKind::Protocol,
            format!("request must be a JSON object, found {}", value.kind()),
        )));
    };
    let id = match obj.get("id") {
        None => None,
        Some(raw) => match raw.as_u64() {
            Some(id) => Some(id),
            None => {
                return Err(untagged(RequestError::new(
                    ErrorKind::BadId,
                    format!("`id` must be a non-negative integer, found {}", raw.kind()),
                )));
            }
        },
    };
    match parse_request_body(obj) {
        Ok(request) => Ok(Envelope { id, request }),
        Err(error) => Err(EnvelopeError { id, error }),
    }
}

/// Decodes the request out of an already-parsed line object (the `id`
/// member, if any, has been handled by the caller).
fn parse_request_body(obj: &Map) -> Result<Request, RequestError> {
    let kind = obj
        .get("kind")
        .ok_or_else(|| RequestError::new(ErrorKind::Protocol, "missing `kind` member"))?;
    let Some(kind) = kind.as_str() else {
        return Err(RequestError::new(
            ErrorKind::Protocol,
            format!("`kind` must be a string, found {}", kind.kind()),
        ));
    };
    match kind {
        "query" => Ok(Request::Query {
            structure: required_string(obj, "structure")?,
            dims: dims_vector(obj.get("dims"), "dims")?,
        }),
        "batch_query" => {
            let structure = required_string(obj, "structure")?;
            let raw = obj.get("dims_list").ok_or_else(|| {
                RequestError::new(ErrorKind::Protocol, "missing `dims_list` member")
            })?;
            let Some(items) = raw.as_array() else {
                return Err(RequestError::new(
                    ErrorKind::Protocol,
                    format!("`dims_list` must be an array, found {}", raw.kind()),
                ));
            };
            let dims_list = items
                .iter()
                .enumerate()
                .map(|(i, item)| dims_vector(Some(item), &format!("dims_list[{i}]")))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Request::BatchQuery {
                structure,
                dims_list,
                binary: binary_encoding(obj)?,
            })
        }
        "instantiate" => Ok(Request::Instantiate {
            structure: required_string(obj, "structure")?,
            dims: dims_vector(obj.get("dims"), "dims")?,
        }),
        "reload" => Ok(Request::Reload),
        "stats" => Ok(Request::Stats),
        "list_structures" => Ok(Request::ListStructures),
        "metrics" => Ok(Request::Metrics),
        "trace" => Ok(Request::Trace),
        "refine" => {
            let run = match obj.get("action") {
                None => true,
                Some(action) => match action.as_str() {
                    Some("run") => true,
                    Some("status") => false,
                    Some(other) => {
                        return Err(RequestError::new(
                            ErrorKind::Protocol,
                            format!("unknown refine `action` `{other}` (this server speaks run, status)"),
                        ));
                    }
                    None => {
                        return Err(RequestError::new(
                            ErrorKind::Protocol,
                            format!("`action` must be a string, found {}", action.kind()),
                        ));
                    }
                },
            };
            let structure = match obj.get("structure") {
                None => None,
                Some(value) => Some(value.as_str().map(str::to_owned).ok_or_else(|| {
                    RequestError::new(
                        ErrorKind::Protocol,
                        format!("`structure` must be a string, found {}", value.kind()),
                    )
                })?),
            };
            Ok(Request::Refine { run, structure })
        }
        other => Err(RequestError::new(
            ErrorKind::UnknownKind,
            format!(
                "unknown request kind `{other}` (this server speaks {})",
                REQUEST_KINDS.join(", ")
            ),
        )),
    }
}

/// Decodes the optional `encoding` member: absent or `"json"` keeps the
/// JSON response line, `"bin"` opts this one request into a binary
/// answer frame. Anything else is a typed protocol error.
fn binary_encoding(obj: &Map) -> Result<bool, RequestError> {
    match obj.get("encoding") {
        None => Ok(false),
        Some(value) => match value.as_str() {
            Some("json") => Ok(false),
            Some("bin") => Ok(true),
            Some(other) => Err(RequestError::new(
                ErrorKind::Protocol,
                format!("unknown `encoding` `{other}` (this server speaks json, bin)"),
            )),
            None => Err(RequestError::new(
                ErrorKind::Protocol,
                format!("`encoding` must be a string, found {}", value.kind()),
            )),
        },
    }
}

fn required_string(obj: &Map, member: &str) -> Result<String, RequestError> {
    let value = obj.get(member).ok_or_else(|| {
        RequestError::new(ErrorKind::Protocol, format!("missing `{member}` member"))
    })?;
    value.as_str().map(str::to_owned).ok_or_else(|| {
        RequestError::new(
            ErrorKind::Protocol,
            format!("`{member}` must be a string, found {}", value.kind()),
        )
    })
}

/// Decodes a `[[w, h], ...]` dimension vector into a validated
/// [`Dims`]. Structure-independent validation happens right here at the
/// trust boundary — an empty vector is a typed `bad_arity`, a zero or
/// negative width/height a typed `out_of_bounds` — so no unchecked
/// wire data ever reaches a `Dims`. Structure-*specific* checks (arity
/// against the block count, designer bounds) still happen in the
/// server, where the addressed structure is known.
fn dims_vector(value: Option<&Value>, member: &str) -> Result<Dims, RequestError> {
    let value = value.ok_or_else(|| {
        RequestError::new(ErrorKind::Protocol, format!("missing `{member}` member"))
    })?;
    let Some(pairs) = value.as_array() else {
        return Err(RequestError::new(
            ErrorKind::Protocol,
            format!(
                "`{member}` must be an array of [w, h] pairs, found {}",
                value.kind()
            ),
        ));
    };
    pairs
        .iter()
        .enumerate()
        .map(|(i, pair)| {
            let Some(wh) = pair.as_array() else {
                return Err(RequestError::new(
                    ErrorKind::Protocol,
                    format!(
                        "`{member}[{i}]` must be a [w, h] pair, found {}",
                        pair.kind()
                    ),
                ));
            };
            if wh.len() != 2 {
                return Err(RequestError::new(
                    ErrorKind::Protocol,
                    format!(
                        "`{member}[{i}]` must hold exactly 2 values, found {}",
                        wh.len()
                    ),
                ));
            }
            let coord = |v: &Value, axis: &str| {
                v.as_i64().ok_or_else(|| {
                    RequestError::new(
                        ErrorKind::Protocol,
                        format!(
                            "`{member}[{i}]` {axis} must be an integer, found {}",
                            v.kind()
                        ),
                    )
                })
            };
            Ok((coord(&wh[0], "width")?, coord(&wh[1], "height")?))
        })
        .collect::<Result<Vec<(Coord, Coord)>, RequestError>>()
        .and_then(|pairs| {
            Dims::new(pairs).map_err(|e| match e {
                DimsError::Empty => RequestError::new(
                    ErrorKind::BadArity,
                    format!("`{member}` holds no [w, h] pairs; no structure covers 0 blocks"),
                ),
                DimsError::NonPositive {
                    block,
                    width,
                    height,
                } => RequestError::new(
                    ErrorKind::OutOfBounds,
                    format!(
                        "`{member}[{block}]` dimensions ({width}, {height}) are not positive \
                         sizes; the smallest legal value is 1"
                    ),
                ),
            })
        })
}

/// Renders a `{"ok":false,"error":{...}}` response line (without the
/// trailing newline).
#[must_use]
pub fn error_response(error: &RequestError) -> String {
    tagged_error_response(None, error)
}

/// Renders a `{"ok":false,...}` response line, echoing the request id as
/// `req` when the failed request carried an accepted one.
#[must_use]
pub fn tagged_error_response(id: Option<u64>, error: &RequestError) -> String {
    let mut inner = Map::new();
    inner.insert("kind", Value::String(error.kind.as_str().to_owned()));
    inner.insert("message", Value::String(error.message.clone()));
    let mut map = Map::new();
    map.insert("ok", Value::Bool(false));
    if let Some(id) = id {
        map.insert("req", id.to_value());
    }
    map.insert("error", Value::Object(inner));
    render(map)
}

/// Starts a `{"ok":true,"kind":...}` response object for `kind`.
#[must_use]
pub fn ok_header(kind: &str) -> Map {
    let mut map = Map::new();
    map.insert("ok", Value::Bool(true));
    map.insert("kind", Value::String(kind.to_owned()));
    map
}

/// Renders a response object to its wire line (no trailing newline).
#[must_use]
pub fn render(map: Map) -> String {
    serde_json::to_string(&Value::Object(map)).expect("value trees always serialize")
}

/// An optional placement id as its wire value (`id` or `null`).
#[must_use]
pub fn id_value(id: Option<mps_core::PlacementId>) -> Value {
    match id {
        Some(id) => id.0.to_value(),
        None => Value::Null,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_request_kind() {
        assert_eq!(
            parse_request(r#"{"kind":"query","structure":"s","dims":[[1,2],[3,4]]}"#).unwrap(),
            Request::Query {
                structure: "s".into(),
                dims: Dims::from_vec_unchecked(vec![(1, 2), (3, 4)]),
            }
        );
        assert_eq!(
            parse_request(
                r#"{"kind":"batch_query","structure":"s","dims_list":[[[1,2]],[[3,4]]]}"#
            )
            .unwrap(),
            Request::BatchQuery {
                structure: "s".into(),
                dims_list: vec![
                    Dims::from_vec_unchecked(vec![(1, 2)]),
                    Dims::from_vec_unchecked(vec![(3, 4)])
                ],
                binary: false,
            }
        );
        assert_eq!(
            parse_request(r#"{"kind":"instantiate","structure":"s","dims":[[5,7]]}"#).unwrap(),
            Request::Instantiate {
                structure: "s".into(),
                dims: Dims::from_vec_unchecked(vec![(5, 7)]),
            }
        );
        assert_eq!(
            parse_request(r#"{"kind":"stats"}"#).unwrap(),
            Request::Stats
        );
        assert_eq!(
            parse_request(r#"{"kind":"reload"}"#).unwrap(),
            Request::Reload
        );
        assert_eq!(
            parse_request(r#"{"kind":"list_structures"}"#).unwrap(),
            Request::ListStructures
        );
        assert_eq!(
            parse_request(r#"{"kind":"metrics"}"#).unwrap(),
            Request::Metrics
        );
        assert_eq!(
            parse_request(r#"{"kind":"trace"}"#).unwrap(),
            Request::Trace
        );
        assert_eq!(
            parse_request(r#"{"kind":"refine"}"#).unwrap(),
            Request::Refine {
                run: true,
                structure: None,
            }
        );
        assert_eq!(
            parse_request(r#"{"kind":"refine","action":"status"}"#).unwrap(),
            Request::Refine {
                run: false,
                structure: None,
            }
        );
        assert_eq!(
            parse_request(r#"{"kind":"refine","action":"run","structure":"circ01"}"#).unwrap(),
            Request::Refine {
                run: true,
                structure: Some("circ01".into()),
            }
        );
    }

    #[test]
    fn malformed_refine_requests_are_typed_protocol_errors() {
        let kind_of = |line: &str| parse_request(line).unwrap_err().kind;
        assert_eq!(
            kind_of(r#"{"kind":"refine","action":"now"}"#),
            ErrorKind::Protocol
        );
        assert_eq!(
            kind_of(r#"{"kind":"refine","action":7}"#),
            ErrorKind::Protocol
        );
        assert_eq!(
            kind_of(r#"{"kind":"refine","structure":[1]}"#),
            ErrorKind::Protocol
        );
        // The optional structure surfaces through structure_name.
        let req = parse_request(r#"{"kind":"refine","structure":"s"}"#).unwrap();
        assert_eq!(req.structure_name(), Some("s"));
    }

    #[test]
    fn kind_str_round_trips_through_the_parser() {
        // Every wire spelling parses to a request whose `kind_str` is
        // that spelling (body members filled with minimal valid values).
        for kind in REQUEST_KINDS {
            let body = match kind {
                "query" | "instantiate" => {
                    format!(r#"{{"kind":"{kind}","structure":"s","dims":[[1,2]]}}"#)
                }
                "batch_query" => {
                    format!(r#"{{"kind":"{kind}","structure":"s","dims_list":[[[1,2]]]}}"#)
                }
                // `refine` needs no members; the bare form is "run now".
                _ => format!(r#"{{"kind":"{kind}"}}"#),
            };
            let request = parse_request(&body).unwrap();
            assert_eq!(request.kind_str(), kind);
        }
    }

    #[test]
    fn envelopes_carry_request_ids() {
        assert_eq!(
            parse_envelope(r#"{"id":7,"kind":"stats"}"#).unwrap(),
            Envelope {
                id: Some(7),
                request: Request::Stats,
            }
        );
        assert_eq!(
            parse_envelope(r#"{"kind":"stats"}"#).unwrap().id,
            None,
            "untagged lines stay untagged"
        );
        // A schema error on a tagged line keeps the tag, so the error
        // response stays correlatable for a pipelining client.
        let err = parse_envelope(r#"{"id":9,"kind":"query"}"#).unwrap_err();
        assert_eq!(err.id, Some(9));
        assert_eq!(err.error.kind, ErrorKind::Protocol);
        // Ill-formed ids are bad_id, untagged (the tag is unusable).
        for line in [
            r#"{"id":"seven","kind":"stats"}"#,
            r#"{"id":1.5,"kind":"stats"}"#,
            r#"{"id":-3,"kind":"stats"}"#,
            r#"{"id":null,"kind":"stats"}"#,
            r#"{"id":true,"kind":"stats"}"#,
            r#"{"id":[7],"kind":"stats"}"#,
        ] {
            let err = parse_envelope(line).unwrap_err();
            assert_eq!(err.error.kind, ErrorKind::BadId, "{line}");
            assert_eq!(err.id, None, "{line}");
        }
    }

    #[test]
    fn tagged_error_lines_echo_the_request_id() {
        let line = tagged_error_response(
            Some(42),
            &RequestError::new(ErrorKind::UnknownStructure, "no such structure"),
        );
        let value = serde_json::parse(&line).unwrap();
        assert_eq!(value.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(value.get("req").and_then(Value::as_u64), Some(42));
    }

    #[test]
    fn typed_errors_for_malformed_requests() {
        let kind_of = |line: &str| parse_request(line).unwrap_err().kind;
        assert_eq!(kind_of("{\"kind\":"), ErrorKind::Parse);
        assert_eq!(kind_of("[1,2]"), ErrorKind::Protocol);
        assert_eq!(kind_of("{}"), ErrorKind::Protocol);
        assert_eq!(kind_of(r#"{"kind":7}"#), ErrorKind::Protocol);
        assert_eq!(kind_of(r#"{"kind":"frobnicate"}"#), ErrorKind::UnknownKind);
        assert_eq!(
            kind_of(r#"{"kind":"query","dims":[[1,2]]}"#),
            ErrorKind::Protocol
        );
        assert_eq!(
            kind_of(r#"{"kind":"query","structure":"s","dims":[[1,2,3]]}"#),
            ErrorKind::Protocol
        );
        assert_eq!(
            kind_of(r#"{"kind":"query","structure":"s","dims":[["a",2]]}"#),
            ErrorKind::Protocol
        );
        assert_eq!(
            kind_of(r#"{"kind":"batch_query","structure":"s","dims_list":[7]}"#),
            ErrorKind::Protocol
        );
    }

    /// Regression: wire dims used to flow through
    /// `Dims::from_vec_unchecked`, so empty and non-positive vectors
    /// reached the query engine unvalidated. The decoder now routes
    /// through the checked constructor and answers with the existing
    /// typed errors.
    #[test]
    fn degenerate_dims_are_refused_at_the_trust_boundary() {
        let err = |line: &str| parse_request(line).unwrap_err();
        let empty = err(r#"{"kind":"query","structure":"s","dims":[]}"#);
        assert_eq!(empty.kind, ErrorKind::BadArity);
        assert!(empty.message.contains("`dims`"), "{empty}");
        for (line, member) in [
            (
                r#"{"kind":"query","structure":"s","dims":[[1,2],[0,5]]}"#,
                "`dims[1]`",
            ),
            (
                r#"{"kind":"instantiate","structure":"s","dims":[[-5,7]]}"#,
                "`dims[0]`",
            ),
            (
                r#"{"kind":"batch_query","structure":"s","dims_list":[[[1,1]],[[3,-4]]]}"#,
                "`dims_list[1][0]`",
            ),
        ] {
            let e = err(line);
            assert_eq!(e.kind, ErrorKind::OutOfBounds, "{line}");
            assert!(e.message.contains(member), "{line}: {e}");
        }
        let empty_element = err(r#"{"kind":"batch_query","structure":"s","dims_list":[[]]}"#);
        assert_eq!(empty_element.kind, ErrorKind::BadArity);
        // Extreme-but-positive values still parse: designer-bounds
        // rejection stays the server's job, where the structure is known.
        assert!(parse_request(&format!(
            r#"{{"kind":"query","structure":"s","dims":[[1,{}]]}}"#,
            i64::MAX
        ))
        .is_ok());
    }

    #[test]
    fn encoding_member_is_parsed_and_validated() {
        let batch = |suffix: &str| {
            parse_request(&format!(
                r#"{{"kind":"batch_query","structure":"s","dims_list":[[[1,2]]]{suffix}}}"#
            ))
        };
        let binary_of = |req: Request| match req {
            Request::BatchQuery { binary, .. } => binary,
            other => panic!("expected a batch, got {other:?}"),
        };
        assert!(!binary_of(batch("").unwrap()), "absent defaults to JSON");
        assert!(!binary_of(batch(r#","encoding":"json""#).unwrap()));
        assert!(binary_of(batch(r#","encoding":"bin""#).unwrap()));
        let unknown = batch(r#","encoding":"protobuf""#).unwrap_err();
        assert_eq!(unknown.kind, ErrorKind::Protocol);
        assert!(unknown.message.contains("protobuf"), "{unknown}");
        let ill_typed = batch(r#","encoding":7"#).unwrap_err();
        assert_eq!(ill_typed.kind, ErrorKind::Protocol);
    }

    #[test]
    fn error_lines_are_well_formed() {
        let line = error_response(&RequestError::new(ErrorKind::BadArity, "want 5, got 3"));
        let value = serde_json::parse(&line).unwrap();
        assert_eq!(value.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(
            value
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Value::as_str),
            Some("bad_arity")
        );
    }
}
