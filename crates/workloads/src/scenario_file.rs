//! Plain-text experiment scenario files.
//!
//! The paper's emulator "first reads the experiment scenario file
//! describing NCPs and their CPU capacities, links and their
//! bandwidths, … and the CT/TT requirements" (§V-A). This module
//! implements that: a line-oriented format describing one network and
//! one or more applications, with a parser ([`parse_scenario`]) and a
//! writer ([`write_scenario`]) that round-trip.
//!
//! # Format
//!
//! ```text
//! # comments and blank lines are ignored
//! network <name>                 # optional display name
//! ncp  <name> cpu=<MHz> [memory=<MB>] [failure=<p>]
//! link <name> <ncp> <ncp> bw=<Mbps> [failure=<p>] [directed]
//!
//! app  <name> best-effort priority=<f> [availability=<p>]
//! app  <name> guaranteed rate=<f> availability=<p>
//! ct   <name> [cpu=<f>] [memory=<f>] [host=<ncp>]
//! tt   <name> <ct> <ct> bits=<f>
//! ```
//!
//! `ct`/`tt` lines belong to the most recent `app` line. `host=` pins a
//! CT to an NCP (sources and sinks must be pinned). A key or flag a
//! directive does not list above is an error, and so is a `cpu=` or
//! `memory=` amount that is negative or not finite.
//!
//! # Examples
//!
//! ```
//! # use sparcle_workloads::scenario_file::parse_scenario;
//! let text = "
//! ncp gw cpu=800
//! ncp edge cpu=3000
//! link wifi gw edge bw=40
//! app demo best-effort priority=1
//! ct cam host=gw
//! ct work cpu=1500
//! ct out host=edge
//! tt raw cam work bits=8
//! tt res work out bits=0.05
//! ";
//! let scenario = parse_scenario(text)?;
//! assert_eq!(scenario.network.ncp_count(), 2);
//! assert_eq!(scenario.apps.len(), 1);
//! # Ok::<(), sparcle_workloads::scenario_file::ScenarioParseError>(())
//! ```

use sparcle_model::{
    Application, CtId, LinkDirection, ModelError, NcpId, Network, NetworkBuilder, QoeClass,
    ResourceVec, TaskGraphBuilder,
};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// A parsed scenario: one network plus the applications to schedule.
#[derive(Debug, Clone)]
pub struct FileScenario {
    /// The dispersed computing network.
    pub network: Network,
    /// Applications in file order, with their names.
    pub apps: Vec<(String, Application)>,
}

/// A parse failure with its 1-based line number.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioParseError {
    /// 1-based line of the offending input (0 for end-of-input errors).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ScenarioParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario line {}: {}", self.line, self.message)
    }
}

impl Error for ScenarioParseError {}

fn err(line: usize, message: impl Into<String>) -> ScenarioParseError {
    ScenarioParseError {
        line,
        message: message.into(),
    }
}

fn model_err(line: usize, e: ModelError) -> ScenarioParseError {
    err(line, e.to_string())
}

/// Splits `key=value` tokens and flags out of a token stream, rejecting
/// any key not in `keys` and any flag not in `flags`.
fn parse_kv<'a>(
    tokens: &[&'a str],
    line: usize,
    keys: &[&str],
    flags: &[&str],
) -> Result<(BTreeMap<&'a str, &'a str>, Vec<&'a str>), ScenarioParseError> {
    let mut kv = BTreeMap::new();
    let mut found = Vec::new();
    for &tok in tokens {
        match tok.split_once('=') {
            Some((k, _)) if !keys.contains(&k) => {
                return Err(err(line, format!("unknown key `{k}`")));
            }
            Some((k, v)) => {
                if kv.insert(k, v).is_some() {
                    return Err(err(line, format!("duplicate key `{k}`")));
                }
            }
            None if !flags.contains(&tok) => {
                return Err(err(line, format!("unknown flag `{tok}`")));
            }
            None if found.contains(&tok) => {
                return Err(err(line, format!("duplicate flag `{tok}`")));
            }
            None => found.push(tok),
        }
    }
    Ok((kv, found))
}

fn parse_f64(
    kv: &BTreeMap<&str, &str>,
    key: &str,
    line: usize,
) -> Result<Option<f64>, ScenarioParseError> {
    match kv.get(key) {
        None => Ok(None),
        Some(v) => v
            .parse::<f64>()
            .map(Some)
            .map_err(|_| err(line, format!("`{key}` is not a number: {v}"))),
    }
}

/// Parses a resource amount, which must be finite and non-negative.
fn parse_amount(
    kv: &BTreeMap<&str, &str>,
    key: &str,
    line: usize,
) -> Result<Option<f64>, ScenarioParseError> {
    match parse_f64(kv, key, line)? {
        Some(v) if !v.is_finite() || v < 0.0 => Err(err(
            line,
            format!("`{key}` must be finite and non-negative, got {v}"),
        )),
        amount => Ok(amount),
    }
}

/// One application under construction.
struct AppDraft {
    name: String,
    qoe: QoeClass,
    line: usize,
    builder: TaskGraphBuilder,
    ct_names: BTreeMap<String, CtId>,
    pins: Vec<(CtId, NcpId)>,
}

impl AppDraft {
    fn finish(self) -> Result<(String, Application), ScenarioParseError> {
        let graph = self.builder.build().map_err(|e| model_err(self.line, e))?;
        let app =
            Application::new(graph, self.qoe, self.pins).map_err(|e| model_err(self.line, e))?;
        Ok((self.name, app))
    }
}

/// Parses a scenario file.
///
/// # Errors
///
/// Returns a [`ScenarioParseError`] naming the offending line for any
/// syntactic or semantic problem (unknown directive, dangling
/// reference, invalid quantity, malformed graph).
pub fn parse_scenario(text: &str) -> Result<FileScenario, ScenarioParseError> {
    let mut nb = NetworkBuilder::new();
    let mut ncp_names: BTreeMap<String, NcpId> = BTreeMap::new();
    let mut network: Option<Network> = None;
    let mut apps: Vec<(String, Application)> = Vec::new();
    let mut draft: Option<AppDraft> = None;

    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let content = raw.split('#').next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }
        let tokens: Vec<&str> = content.split_whitespace().collect();
        match tokens[0] {
            "network" => {
                if network.is_some() {
                    return Err(err(line, "network line must precede app lines"));
                }
                let name = *tokens
                    .get(1)
                    .ok_or_else(|| err(line, "network needs a name"))?;
                parse_kv(&tokens[2..], line, &[], &[])?;
                nb.name(name);
            }
            "ncp" => {
                if network.is_some() {
                    return Err(err(line, "ncp lines must precede app lines"));
                }
                let name = *tokens.get(1).ok_or_else(|| err(line, "ncp needs a name"))?;
                let (kv, _) = parse_kv(&tokens[2..], line, &["cpu", "memory", "failure"], &[])?;
                let cpu = parse_amount(&kv, "cpu", line)?
                    .ok_or_else(|| err(line, "ncp needs cpu=<MHz>"))?;
                let mut cap = ResourceVec::cpu(cpu);
                if let Some(mem) = parse_amount(&kv, "memory", line)? {
                    cap.set(sparcle_model::ResourceKind::Memory, mem);
                }
                let failure = parse_f64(&kv, "failure", line)?.unwrap_or(0.0);
                let id = nb
                    .add_ncp_with_failure(name, cap, failure)
                    .map_err(|e| model_err(line, e))?;
                if ncp_names.insert(name.to_owned(), id).is_some() {
                    return Err(err(line, format!("duplicate ncp `{name}`")));
                }
            }
            "link" => {
                if network.is_some() {
                    return Err(err(line, "link lines must precede app lines"));
                }
                let name = *tokens
                    .get(1)
                    .ok_or_else(|| err(line, "link needs a name"))?;
                let a = *tokens
                    .get(2)
                    .ok_or_else(|| err(line, "link needs two NCPs"))?;
                let b = *tokens
                    .get(3)
                    .ok_or_else(|| err(line, "link needs two NCPs"))?;
                let (kv, flags) = parse_kv(&tokens[4..], line, &["bw", "failure"], &["directed"])?;
                let direction = if flags.is_empty() {
                    LinkDirection::Undirected
                } else {
                    LinkDirection::Directed
                };
                let bw =
                    parse_f64(&kv, "bw", line)?.ok_or_else(|| err(line, "link needs bw=<Mbps>"))?;
                let failure = parse_f64(&kv, "failure", line)?.unwrap_or(0.0);
                let a = *ncp_names
                    .get(a)
                    .ok_or_else(|| err(line, format!("unknown ncp `{a}`")))?;
                let b = *ncp_names
                    .get(b)
                    .ok_or_else(|| err(line, format!("unknown ncp `{b}`")))?;
                nb.add_link_full(name, a, b, bw, direction, failure)
                    .map_err(|e| model_err(line, e))?;
            }
            "app" => {
                if network.is_none() {
                    network = Some(
                        std::mem::take(&mut nb)
                            .build()
                            .map_err(|e| model_err(line, e))?,
                    );
                }
                if let Some(done) = draft.take() {
                    apps.push(done.finish()?);
                }
                let name = *tokens.get(1).ok_or_else(|| err(line, "app needs a name"))?;
                let kind = *tokens
                    .get(2)
                    .ok_or_else(|| err(line, "app needs best-effort|guaranteed"))?;
                let keys: &[&str] = match kind {
                    "best-effort" => &["priority", "availability"],
                    "guaranteed" => &["rate", "availability"],
                    other => {
                        return Err(err(line, format!("unknown app kind `{other}`")));
                    }
                };
                let (kv, _) = parse_kv(&tokens[3..], line, keys, &[])?;
                let qoe = if kind == "best-effort" {
                    QoeClass::BestEffort {
                        priority: parse_f64(&kv, "priority", line)?.unwrap_or(1.0),
                        availability: parse_f64(&kv, "availability", line)?,
                    }
                } else {
                    QoeClass::GuaranteedRate {
                        min_rate: parse_f64(&kv, "rate", line)?
                            .ok_or_else(|| err(line, "guaranteed needs rate=<f>"))?,
                        min_rate_availability: parse_f64(&kv, "availability", line)?
                            .ok_or_else(|| err(line, "guaranteed needs availability=<p>"))?,
                    }
                };
                let mut builder = TaskGraphBuilder::new();
                builder.name(name);
                draft = Some(AppDraft {
                    name: name.to_owned(),
                    qoe,
                    line,
                    builder,
                    ct_names: BTreeMap::new(),
                    pins: Vec::new(),
                });
            }
            "ct" => {
                let d = draft
                    .as_mut()
                    .ok_or_else(|| err(line, "ct outside of an app block"))?;
                let name = *tokens.get(1).ok_or_else(|| err(line, "ct needs a name"))?;
                let (kv, _) = parse_kv(&tokens[2..], line, &["cpu", "memory", "host"], &[])?;
                let mut req = ResourceVec::new();
                if let Some(cpu) = parse_amount(&kv, "cpu", line)? {
                    req.set(sparcle_model::ResourceKind::Cpu, cpu);
                }
                if let Some(mem) = parse_amount(&kv, "memory", line)? {
                    req.set(sparcle_model::ResourceKind::Memory, mem);
                }
                let id = d.builder.add_ct(name, req);
                if d.ct_names.insert(name.to_owned(), id).is_some() {
                    return Err(err(line, format!("duplicate ct `{name}`")));
                }
                if let Some(host) = kv.get("host") {
                    let ncp = *ncp_names
                        .get(*host)
                        .ok_or_else(|| err(line, format!("unknown ncp `{host}`")))?;
                    d.pins.push((id, ncp));
                }
            }
            "tt" => {
                let d = draft
                    .as_mut()
                    .ok_or_else(|| err(line, "tt outside of an app block"))?;
                let name = *tokens.get(1).ok_or_else(|| err(line, "tt needs a name"))?;
                let from = *tokens.get(2).ok_or_else(|| err(line, "tt needs two CTs"))?;
                let to = *tokens.get(3).ok_or_else(|| err(line, "tt needs two CTs"))?;
                let (kv, _) = parse_kv(&tokens[4..], line, &["bits"], &[])?;
                let bits =
                    parse_f64(&kv, "bits", line)?.ok_or_else(|| err(line, "tt needs bits=<f>"))?;
                let from = *d
                    .ct_names
                    .get(from)
                    .ok_or_else(|| err(line, format!("unknown ct `{from}`")))?;
                let to = *d
                    .ct_names
                    .get(to)
                    .ok_or_else(|| err(line, format!("unknown ct `{to}`")))?;
                d.builder
                    .add_tt(name, from, to, bits)
                    .map_err(|e| model_err(line, e))?;
            }
            other => return Err(err(line, format!("unknown directive `{other}`"))),
        }
    }
    if let Some(done) = draft.take() {
        apps.push(done.finish()?);
    }
    let network = match network {
        Some(n) => n,
        None => nb.build().map_err(|e| model_err(0, e))?,
    };
    Ok(FileScenario { network, apps })
}

/// Serializes a scenario back to the file format (round-trips through
/// [`parse_scenario`]).
pub fn write_scenario(scenario: &FileScenario) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let net = &scenario.network;
    if !net.name().is_empty() {
        writeln!(out, "network {}", net.name()).expect("string write");
    }
    for id in net.ncp_ids() {
        let ncp = net.ncp(id);
        write!(
            out,
            "ncp {} cpu={}",
            ncp.name(),
            ncp.capacity().amount(sparcle_model::ResourceKind::Cpu)
        )
        .expect("string write");
        let mem = ncp.capacity().amount(sparcle_model::ResourceKind::Memory);
        if mem > 0.0 {
            write!(out, " memory={mem}").expect("string write");
        }
        if ncp.failure_probability() > 0.0 {
            write!(out, " failure={}", ncp.failure_probability()).expect("string write");
        }
        out.push('\n');
    }
    for id in net.link_ids() {
        let link = net.link(id);
        write!(
            out,
            "link {} {} {} bw={}",
            link.name(),
            net.ncp(link.a()).name(),
            net.ncp(link.b()).name(),
            link.bandwidth()
        )
        .expect("string write");
        if link.failure_probability() > 0.0 {
            write!(out, " failure={}", link.failure_probability()).expect("string write");
        }
        if link.direction() == LinkDirection::Directed {
            out.push_str(" directed");
        }
        out.push('\n');
    }
    for (name, app) in &scenario.apps {
        out.push('\n');
        match app.qoe() {
            QoeClass::BestEffort {
                priority,
                availability,
            } => {
                write!(out, "app {name} best-effort priority={priority}").expect("string write");
                if let Some(a) = availability {
                    write!(out, " availability={a}").expect("string write");
                }
                out.push('\n');
            }
            QoeClass::GuaranteedRate {
                min_rate,
                min_rate_availability,
            } => {
                writeln!(
                    out,
                    "app {name} guaranteed rate={min_rate} availability={min_rate_availability}"
                )
                .expect("string write");
            }
        }
        let graph = app.graph();
        for ct in graph.ct_ids() {
            let c = graph.ct(ct);
            write!(out, "ct {}", c.name()).expect("string write");
            let cpu = c.requirement().amount(sparcle_model::ResourceKind::Cpu);
            if cpu > 0.0 {
                write!(out, " cpu={cpu}").expect("string write");
            }
            let mem = c.requirement().amount(sparcle_model::ResourceKind::Memory);
            if mem > 0.0 {
                write!(out, " memory={mem}").expect("string write");
            }
            if let Some(host) = app.pinned_host(ct) {
                write!(out, " host={}", net.ncp(host).name()).expect("string write");
            }
            out.push('\n');
        }
        for tt in graph.tt_ids() {
            let t = graph.tt(tt);
            writeln!(
                out,
                "tt {} {} {} bits={}",
                t.name(),
                graph.ct(t.from()).name(),
                graph.ct(t.to()).name(),
                t.bits_per_unit()
            )
            .expect("string write");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "
# A small deployment.
ncp gw cpu=800 failure=0.01
ncp edge cpu=3000 memory=512
link wifi gw edge bw=40 failure=0.02

app demo best-effort priority=2 availability=0.9
ct cam host=gw
ct work cpu=1500 memory=64
ct out host=edge
tt raw cam work bits=8
tt res work out bits=0.05

app guard guaranteed rate=1.5 availability=0.99
ct src host=edge
ct crunch cpu=300
ct dst host=gw
tt in src crunch bits=2
tt outt crunch dst bits=1
";

    #[test]
    fn parses_sample() {
        let s = parse_scenario(SAMPLE).unwrap();
        assert_eq!(s.network.ncp_count(), 2);
        assert_eq!(s.network.link_count(), 1);
        assert_eq!(s.apps.len(), 2);
        assert_eq!(s.apps[0].0, "demo");
        assert!(matches!(
            s.apps[0].1.qoe(),
            QoeClass::BestEffort { priority, availability: Some(a) }
                if *priority == 2.0 && *a == 0.9
        ));
        assert!(matches!(
            s.apps[1].1.qoe(),
            QoeClass::GuaranteedRate { min_rate, .. } if *min_rate == 1.5
        ));
        // Memory parsed on both sides.
        let edge = s.network.ncp(NcpId::new(1));
        assert_eq!(
            edge.capacity().amount(sparcle_model::ResourceKind::Memory),
            512.0
        );
        let work = s.apps[0].1.graph().ct(CtId::new(1));
        assert_eq!(
            work.requirement()
                .amount(sparcle_model::ResourceKind::Memory),
            64.0
        );
    }

    #[test]
    fn round_trips() {
        let a = parse_scenario(SAMPLE).unwrap();
        let text = write_scenario(&a);
        let b = parse_scenario(&text).unwrap();
        assert_eq!(a.network, b.network);
        assert_eq!(a.apps.len(), b.apps.len());
        for ((na, aa), (nb_, ab)) in a.apps.iter().zip(&b.apps) {
            assert_eq!(na, nb_);
            assert_eq!(aa.graph(), ab.graph());
            assert_eq!(aa.qoe(), ab.qoe());
            assert_eq!(aa.pinned(), ab.pinned());
        }
    }

    #[test]
    fn errors_carry_line_numbers() {
        let bad = "ncp a cpu=1\nncp b cpu=2\nlink l a c bw=1\n";
        let e = parse_scenario(bad).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("unknown ncp"), "{}", e.message);
    }

    #[test]
    fn rejects_unknown_directive() {
        let e = parse_scenario("frobnicate x\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("unknown directive"));
    }

    #[test]
    fn rejects_ct_outside_app() {
        let e = parse_scenario("ncp a cpu=1\nct lonely\n").unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn rejects_duplicate_keys_and_names() {
        let e = parse_scenario("ncp a cpu=1 cpu=2\n").unwrap_err();
        assert!(e.message.contains("duplicate key"));
        let e = parse_scenario("ncp a cpu=1\nncp a cpu=2\n").unwrap_err();
        assert!(e.message.contains("duplicate ncp"));
    }

    /// A `cpu=`/`memory=` amount `ResourceVec` would refuse is a parse
    /// error on its own line, on both `ncp` and `ct` lines.
    #[test]
    fn rejects_bad_resource_amounts() {
        let app = "ncp a cpu=10\napp x best-effort\n";
        for (text, line, key) in [
            ("ncp a cpu=nan\n".to_owned(), 1, "cpu"),
            ("ncp a cpu=10 memory=inf\n".to_owned(), 1, "memory"),
            (format!("{app}ct m cpu=-3\n"), 3, "cpu"),
            (format!("{app}ct m cpu=1 memory=nan\n"), 3, "memory"),
        ] {
            let e = parse_scenario(&text).unwrap_err();
            assert_eq!(e.line, line, "{text}");
            let rule = format!("`{key}` must be finite and non-negative");
            assert!(e.message.contains(&rule), "{}", e.message);
        }
    }

    /// Every directive rejects a key or flag it does not know, naming it
    /// and the line.
    #[test]
    fn rejects_unknown_keys_and_flags() {
        let net = "ncp a cpu=10\nncp b cpu=10\n";
        let app = format!("{net}app x best-effort\nct s host=a\nct t host=b\n");
        for (text, line, what) in [
            ("network n extra=1\n".to_owned(), 1, "unknown key `extra`"),
            ("network n loud\n".to_owned(), 1, "unknown flag `loud`"),
            ("ncp a cpu=10 mem=64\n".to_owned(), 1, "unknown key `mem`"),
            ("ncp a cpu=10 fast\n".to_owned(), 1, "unknown flag `fast`"),
            (
                format!("{net}link l a b bw=1 lat=2\n"),
                3,
                "unknown key `lat`",
            ),
            (
                format!("{net}link l a b bw=1 twoway\n"),
                3,
                "unknown flag `twoway`",
            ),
            (
                format!("{net}link l a b bw=1 directed directed\n"),
                3,
                "duplicate flag `directed`",
            ),
            (
                format!("{net}app x best-effort rate=1\n"),
                3,
                "unknown key `rate`",
            ),
            (
                format!("{net}app x guaranteed rate=1 availability=0.9 priority=2\n"),
                3,
                "unknown key `priority`",
            ),
            (
                format!("{net}app x best-effort urgent\n"),
                3,
                "unknown flag `urgent`",
            ),
            (format!("{app}ct w cpu=1 pin=a\n"), 6, "unknown key `pin`"),
            (
                format!("{app}ct w cpu=1 pinned\n"),
                6,
                "unknown flag `pinned`",
            ),
            (
                format!("{app}tt e s t bits=1 size=2\n"),
                6,
                "unknown key `size`",
            ),
            (
                format!("{app}tt e s t bits=1 lossy\n"),
                6,
                "unknown flag `lossy`",
            ),
        ] {
            let e = parse_scenario(&text).unwrap_err();
            assert_eq!(e.line, line, "{text}");
            assert!(e.message.contains(what), "{text}: {}", e.message);
        }
    }

    #[test]
    fn rejects_unpinned_endpoint_with_app_line() {
        let text = "ncp a cpu=1\napp x best-effort priority=1\nct s\nct t cpu=1\ntt e s t bits=1\n";
        let e = parse_scenario(text).unwrap_err();
        // The error is attributed to the app's opening line.
        assert_eq!(e.line, 2);
        assert!(e.message.contains("pinned"), "{}", e.message);
    }

    #[test]
    fn directed_links_parse_and_write() {
        let text = "ncp a cpu=1\nncp b cpu=1\nlink l a b bw=5 directed\n";
        let s = parse_scenario(text).unwrap();
        assert_eq!(
            s.network.link(sparcle_model::LinkId::new(0)).direction(),
            LinkDirection::Directed
        );
        let round = parse_scenario(&write_scenario(&s)).unwrap();
        assert_eq!(s.network, round.network);
    }

    #[test]
    fn best_effort_priority_defaults_to_one() {
        let text = "\nncp a cpu=10\napp x best-effort\nct s host=a\nct w cpu=1\nct t host=a\ntt e s w bits=1\ntt f w t bits=1\n";
        let s = parse_scenario(text).unwrap();
        assert!(matches!(
            s.apps[0].1.qoe(),
            QoeClass::BestEffort { priority, availability: None } if *priority == 1.0
        ));
    }

    #[test]
    fn guaranteed_requires_rate_and_availability() {
        let text = "ncp a cpu=1\napp x guaranteed availability=0.9\n";
        let e = parse_scenario(text).unwrap_err();
        assert!(e.message.contains("rate"), "{}", e.message);
        let text = "ncp a cpu=1\napp x guaranteed rate=1\n";
        let e = parse_scenario(text).unwrap_err();
        assert!(e.message.contains("availability"), "{}", e.message);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let s = parse_scenario("# just a comment\n\nncp a cpu=1 # trailing\n").unwrap();
        assert_eq!(s.network.ncp_count(), 1);
        assert!(s.apps.is_empty());
    }
}
