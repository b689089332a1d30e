//! The CLI's flag grammar: one table naming every command and the flags it
//! accepts, and one parser that walks argv against a command's entry. The
//! unknown-flag check, the missing-value check and each flag kind's value
//! validation happen here and nowhere else; command bodies read typed
//! values out of the returned [`Parsed`].

use crate::{CliError, MetricsOpt};
use alchemist_workloads::Scale;

pub(crate) const USAGE: &str = "usage:
  alchemist profile <file.mc> [--input a,b,c] [--top N] [--war-waw LABEL]
                    [--csv-constructs FILE] [--csv-edges FILE]
  alchemist profile save <file.mc|trace.alct> [--input a,b,c]...
                    [-o|--out FILE.alcp] [--jobs N] [--recover]
                    [--metrics text|json] [--metrics-out FILE]
  alchemist profile merge <A.alcp> <B.alcp>... -o|--out FILE.alcp
                    [--metrics text|json] [--metrics-out FILE]
  alchemist profile query <FILE.alcp> [--analysis profile,advise,stats]
                    [--construct PC|LABEL] [--top N] [--threads K]
                    [--metrics text|json] [--metrics-out FILE]
  alchemist run <file.mc|workload> [--input a,b,c] [--scale S] [--batch-size N]
                [--profile-out FILE.alcp]
                [--metrics text|json] [--metrics-out FILE]
  alchemist advise <file.mc> [--input a,b,c] [--threads K]
  alchemist simulate <file.mc> --mark FUNC[,FUNC..] [--privatize a,b]
                     [--input a,b,c] [--threads K] [--timeline]
  alchemist record <file.mc|workload> [--input a,b,c] [--scale S]
                   [-o|--out trace.alct] [--chunk-events N] [--batch-size N]
                   [--crc] [--profile-out FILE.alcp]
                   [--metrics text|json] [--metrics-out FILE]
  alchemist replay <trace.alct|workload> [--analysis profile,advise,stats]
                   [--top N] [--threads K] [--jobs N] [--batch-size N]
                   [--scale S] [--war-waw LABEL] [--profile-out FILE.alcp]
                   [--recover] [--metrics text|json] [--metrics-out FILE]
  alchemist workloads [--json] [--scale S]

where <workload> is a bundled workload name (see `alchemist workloads`)
and S is one of tiny, small, default, large, huge (default tiny)

exit codes: 0 success, 1 program error (compile error or runtime trap),
2 usage, 3 I/O, 4 corrupt input, 5 internal error, 130 interrupted";

/// How a flag's value is read and checked.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Takes no value.
    Switch,
    /// Any string; the payload names it in the missing-value error.
    Value(&'static str),
    /// A non-negative integer.
    Number,
    /// An integer >= 1: zero gets a named-flag error (`--jobs must be
    /// >= 1`) instead of whatever a zero would do downstream.
    Count,
    /// A workload input [`Scale`].
    Scale,
    /// A comma-separated integer list. Every occurrence is kept: `profile
    /// save` runs once per list, every other command uses the last.
    Input,
    /// Comma-separated names, accumulated across occurrences; the payload
    /// names them in the missing-value error.
    List(&'static str),
    /// `--metrics text|json`, checked together with `--metrics-out` once
    /// the whole command line is read.
    Metrics,
}

#[derive(Clone, Copy)]
pub(crate) struct Flag {
    name: &'static str,
    /// A second spelling of the same flag (`-o` for `--out`).
    short: Option<&'static str>,
    kind: Kind,
}

const fn flag(name: &'static str, kind: Kind) -> Flag {
    Flag {
        name,
        short: None,
        kind,
    }
}

pub(crate) const INPUT: Flag = flag("--input", Kind::Input);
pub(crate) const SCALE: Flag = flag("--scale", Kind::Scale);
pub(crate) const OUT: Flag = Flag {
    name: "--out",
    short: Some("-o"),
    kind: Kind::Value("a path"),
};
pub(crate) const TOP: Flag = flag("--top", Kind::Number);
pub(crate) const THREADS: Flag = flag("--threads", Kind::Count);
pub(crate) const JOBS: Flag = flag("--jobs", Kind::Count);
pub(crate) const BATCH_SIZE: Flag = flag("--batch-size", Kind::Count);
pub(crate) const CHUNK_EVENTS: Flag = flag("--chunk-events", Kind::Count);
pub(crate) const WAR_WAW: Flag = flag("--war-waw", Kind::Value("a label"));
pub(crate) const CSV_CONSTRUCTS: Flag = flag("--csv-constructs", Kind::Value("a path"));
pub(crate) const CSV_EDGES: Flag = flag("--csv-edges", Kind::Value("a path"));
pub(crate) const PROFILE_OUT: Flag = flag("--profile-out", Kind::Value("a path"));
pub(crate) const ANALYSIS: Flag = flag("--analysis", Kind::Value("a value"));
pub(crate) const CONSTRUCT: Flag = flag("--construct", Kind::Value("a pc or label"));
pub(crate) const MARK: Flag = flag("--mark", Kind::List("function name(s)"));
pub(crate) const PRIVATIZE: Flag = flag("--privatize", Kind::List("variable name(s)"));
pub(crate) const RECOVER: Flag = flag("--recover", Kind::Switch);
pub(crate) const CRC: Flag = flag("--crc", Kind::Switch);
pub(crate) const TIMELINE: Flag = flag("--timeline", Kind::Switch);
pub(crate) const JSON: Flag = flag("--json", Kind::Switch);
const METRICS: Flag = flag("--metrics", Kind::Metrics);
const METRICS_OUT: Flag = flag("--metrics-out", Kind::Value("a path"));

/// How many positional arguments a command takes; the payload is the
/// error for none.
#[derive(Clone, Copy)]
enum Operands {
    None,
    One(&'static str),
    AtLeastOne(&'static str),
}

struct Command {
    /// The words that select it: `record`, `profile save`.
    name: &'static str,
    flags: &'static [Flag],
    operands: Operands,
    run: fn(Parsed) -> Result<(), CliError>,
}

impl Command {
    fn flag(&self, arg: &str) -> Option<&'static Flag> {
        self.flags
            .iter()
            .find(|f| f.name == arg || f.short == Some(arg))
    }

    /// Every spelling of every flag, in table order.
    fn spellings(&self) -> impl Iterator<Item = &'static str> {
        self.flags
            .iter()
            .flat_map(|f| f.short.into_iter().chain([f.name]))
    }
}

/// Every command the CLI accepts. The order of each flag list is the order
/// an unknown-flag error lists them in.
static COMMANDS: &[Command] = &[
    Command {
        name: "profile",
        flags: &[INPUT, TOP, WAR_WAW, CSV_CONSTRUCTS, CSV_EDGES],
        operands: Operands::One("no source file given"),
        run: crate::profile_cmd,
    },
    Command {
        name: "profile save",
        flags: &[INPUT, OUT, JOBS, RECOVER, METRICS, METRICS_OUT],
        operands: Operands::One("profile save needs a source file or trace"),
        run: crate::profile_save_cmd,
    },
    Command {
        name: "profile merge",
        flags: &[OUT, METRICS, METRICS_OUT],
        operands: Operands::AtLeastOne("profile merge needs at least one .alcp artifact"),
        run: crate::profile_merge_cmd,
    },
    Command {
        name: "profile query",
        flags: &[ANALYSIS, CONSTRUCT, TOP, THREADS, METRICS, METRICS_OUT],
        operands: Operands::One("profile query needs a .alcp artifact"),
        run: crate::profile_query_cmd,
    },
    Command {
        name: "run",
        flags: &[INPUT, SCALE, BATCH_SIZE, PROFILE_OUT, METRICS, METRICS_OUT],
        operands: Operands::One("no source file given"),
        run: crate::run_cmd,
    },
    Command {
        name: "advise",
        flags: &[INPUT, THREADS],
        operands: Operands::One("no source file given"),
        run: crate::advise_cmd,
    },
    Command {
        name: "simulate",
        flags: &[INPUT, MARK, PRIVATIZE, THREADS, TIMELINE],
        operands: Operands::One("no source file given"),
        run: crate::simulate_cmd,
    },
    Command {
        name: "record",
        flags: &[
            INPUT,
            SCALE,
            OUT,
            CHUNK_EVENTS,
            BATCH_SIZE,
            CRC,
            PROFILE_OUT,
            METRICS,
            METRICS_OUT,
        ],
        operands: Operands::One("record needs a source file"),
        run: crate::record_cmd,
    },
    Command {
        name: "replay",
        flags: &[
            ANALYSIS,
            TOP,
            THREADS,
            JOBS,
            BATCH_SIZE,
            SCALE,
            WAR_WAW,
            PROFILE_OUT,
            RECOVER,
            METRICS,
            METRICS_OUT,
        ],
        operands: Operands::One("replay needs a trace file"),
        run: crate::replay_cmd,
    },
    Command {
        name: "workloads",
        flags: &[JSON, SCALE],
        operands: Operands::None,
        run: crate::workloads_cmd,
    },
];

/// Picks the command `args` names (a two-word entry such as `profile save`
/// wins over its one-word prefix), parses the rest against its flags and
/// runs it.
pub(crate) fn dispatch(args: &[String]) -> Result<(), CliError> {
    let first = args.first().ok_or("no command given")?;
    let (cmd, words) = COMMANDS
        .iter()
        .filter_map(|c| {
            let words = c.name.split(' ').count();
            let given = args.iter().take(words).map(String::as_str);
            c.name.split(' ').eq(given).then_some((c, words))
        })
        .max_by_key(|&(_, words)| words)
        .ok_or_else(|| format!("unknown command `{first}`"))?;
    (cmd.run)(parse(cmd, &args[words..])?)
}

/// A flag's checked value.
#[derive(Debug)]
enum Value {
    Switch,
    Text(String),
    Number(usize),
    Scale(Scale),
    Inputs(Vec<Vec<i64>>),
    List(Vec<String>),
}

/// A command line checked against its [`Command`] entry: the positional
/// arguments, each given flag's value (the last occurrence wins, except
/// for the accumulating kinds) and the validated metrics options.
pub(crate) struct Parsed {
    operands: Vec<String>,
    values: Vec<(&'static str, Value)>,
    pub(crate) metrics: MetricsOpt,
}

impl Parsed {
    fn get(&self, flag: Flag) -> Option<&Value> {
        self.values
            .iter()
            .find(|(name, _)| *name == flag.name)
            .map(|(_, v)| v)
    }

    /// The first positional argument; the parser guarantees one for every
    /// command that takes any.
    pub(crate) fn operand(&self) -> &str {
        &self.operands[0]
    }

    pub(crate) fn operands(&self) -> &[String] {
        &self.operands
    }

    pub(crate) fn switch(&self, flag: Flag) -> bool {
        self.get(flag).is_some()
    }

    pub(crate) fn text(&self, flag: Flag) -> Option<&str> {
        match self.get(flag)? {
            Value::Text(s) => Some(s),
            v => unreachable!("{} holds {v:?}", flag.name),
        }
    }

    pub(crate) fn number(&self, flag: Flag) -> Option<usize> {
        match self.get(flag)? {
            Value::Number(n) => Some(*n),
            v => unreachable!("{} holds {v:?}", flag.name),
        }
    }

    pub(crate) fn scale(&self) -> Option<Scale> {
        match self.get(SCALE)? {
            Value::Scale(s) => Some(*s),
            v => unreachable!("--scale holds {v:?}"),
        }
    }

    /// Every `--input` list, in command-line order.
    pub(crate) fn inputs(&self) -> &[Vec<i64>] {
        match self.get(INPUT) {
            None => &[],
            Some(Value::Inputs(lists)) => lists,
            Some(v) => unreachable!("--input holds {v:?}"),
        }
    }

    /// The last `--input` list, or the empty input.
    pub(crate) fn input(&self) -> Vec<i64> {
        self.inputs().last().cloned().unwrap_or_default()
    }

    pub(crate) fn list(&self, flag: Flag) -> &[String] {
        match self.get(flag) {
            None => &[],
            Some(Value::List(names)) => names,
            Some(v) => unreachable!("{} holds {v:?}", flag.name),
        }
    }
}

fn parse_input_list(v: &str) -> Result<Vec<i64>, CliError> {
    v.split(',')
        .filter(|s| !s.is_empty())
        .map(|s| s.trim().parse::<i64>().map_err(|e| e.to_string().into()))
        .collect()
}

/// Reads the value of one `kind` flag from `rest` (nothing for a switch);
/// `arg` is the spelling the user typed.
fn parse_value<'a>(
    arg: &str,
    kind: Kind,
    rest: &mut impl Iterator<Item = &'a String>,
) -> Result<Value, CliError> {
    let needs = match kind {
        Kind::Switch => return Ok(Value::Switch),
        Kind::Value(what) | Kind::List(what) => what,
        Kind::Metrics => "text or json",
        Kind::Number | Kind::Count | Kind::Scale | Kind::Input => "a value",
    };
    let v = rest.next().ok_or_else(|| format!("{arg} needs {needs}"))?;
    Ok(match kind {
        Kind::Switch => unreachable!("returned above"),
        Kind::Value(_) | Kind::Metrics => Value::Text(v.clone()),
        Kind::Number | Kind::Count => {
            let n: usize = v.parse().map_err(|e| format!("{arg}: {e}"))?;
            if kind == Kind::Count && n == 0 {
                return Err(CliError::bare(format!("{arg} must be >= 1")));
            }
            Value::Number(n)
        }
        Kind::Scale => Value::Scale(Scale::parse(v).ok_or_else(|| {
            CliError::bare(format!(
                "{arg}: unknown scale `{v}` (expected tiny, small, default, large or huge)"
            ))
        })?),
        Kind::Input => Value::Inputs(vec![parse_input_list(v)?]),
        Kind::List(_) => Value::List(v.split(',').map(|s| s.trim().to_owned()).collect()),
    })
}

/// Walks `args` against `cmd`'s entry: rejects unknown flags (naming the
/// ones `cmd` accepts), missing and invalid values, and surplus or missing
/// positional arguments.
fn parse(cmd: &Command, args: &[String]) -> Result<Parsed, CliError> {
    let mut operands = Vec::new();
    let mut values: Vec<(&'static str, Value)> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with('-') {
            if matches!(cmd.operands, Operands::None)
                || (matches!(cmd.operands, Operands::One(_)) && !operands.is_empty())
            {
                return Err(format!("unexpected argument `{arg}`").into());
            }
            operands.push(arg.clone());
            continue;
        }
        let Some(flag) = cmd.flag(arg) else {
            let known: Vec<&str> = cmd.spellings().collect();
            return Err(CliError::bare(format!(
                "unknown flag `{arg}` for `alchemist {}` (expected one of: {})",
                cmd.name,
                known.join(", ")
            )));
        };
        let value = parse_value(arg, flag.kind, &mut it)?;
        match (
            values.iter_mut().find(|(name, _)| *name == flag.name),
            value,
        ) {
            (Some((_, Value::Inputs(all))), Value::Inputs(more)) => all.extend(more),
            (Some((_, Value::List(all))), Value::List(more)) => all.extend(more),
            (Some((_, old)), value) => *old = value,
            (None, value) => values.push((flag.name, value)),
        }
    }
    let text = |f: Flag| {
        values.iter().find_map(|(name, v)| match v {
            Value::Text(s) if *name == f.name => Some(s.clone()),
            _ => None,
        })
    };
    let metrics = MetricsOpt::validate(text(METRICS), text(METRICS_OUT))?;
    if let Operands::One(missing) | Operands::AtLeastOne(missing) = cmd.operands {
        if operands.is_empty() {
            return Err(missing.into());
        }
    }
    Ok(Parsed {
        operands,
        values,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The flags each command's `USAGE` lines name, keyed by command name:
    /// a command line is `  alchemist <words> <operand>...`, and the lines
    /// indented under it continue it.
    fn usage_flags() -> Vec<(String, BTreeSet<String>)> {
        let mut out: Vec<(String, BTreeSet<String>)> = Vec::new();
        for line in USAGE.lines().take_while(|l| !l.is_empty()).skip(1) {
            let mut tokens = line.split_whitespace().peekable();
            if tokens.peek() == Some(&"alchemist") {
                tokens.next();
                let name: Vec<&str> =
                    std::iter::from_fn(|| tokens.next_if(|t| t.starts_with(char::is_alphabetic)))
                        .collect();
                out.push((name.join(" "), BTreeSet::new()));
            }
            let flags = &mut out.last_mut().expect("usage starts with a command").1;
            for t in line.split(|c: char| c.is_whitespace() || "[]|".contains(c)) {
                if t.starts_with('-') {
                    flags.insert(t.to_owned());
                }
            }
        }
        out
    }

    #[test]
    fn every_command_accepts_exactly_the_flags_its_usage_names() {
        let usage = usage_flags();
        let documented: Vec<&str> = usage.iter().map(|(name, _)| name.as_str()).collect();
        let table: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
        assert_eq!(
            documented, table,
            "USAGE and the command table list different commands"
        );
        for (cmd, (_, named)) in COMMANDS.iter().zip(&usage) {
            let accepted: BTreeSet<String> = cmd.spellings().map(str::to_owned).collect();
            assert_eq!(&accepted, named, "flags of `alchemist {}`", cmd.name);
        }
    }

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    fn command(name: &str) -> &'static Command {
        COMMANDS
            .iter()
            .find(|c| c.name == name)
            .expect("in the table")
    }

    #[test]
    fn single_values_take_the_last_occurrence_and_lists_accumulate() {
        let p = parse(
            command("profile save"),
            &argv("f.mc --input 1,2 --jobs 3 --input 4 --jobs 2 -o a --out b"),
        )
        .expect("valid");
        assert_eq!(p.inputs(), [vec![1, 2], vec![4]]);
        assert_eq!(p.input(), [4]);
        assert_eq!(p.number(JOBS), Some(2));
        assert_eq!(p.text(OUT), Some("b"));
        let p = parse(
            command("simulate"),
            &argv("f.mc --mark a,b --privatize x --mark c --timeline"),
        )
        .expect("valid");
        assert_eq!(p.list(MARK), ["a", "b", "c"]);
        assert_eq!(p.list(PRIVATIZE), ["x"]);
        assert!(p.switch(TIMELINE) && !p.switch(CRC));
        assert_eq!(p.number(THREADS), None);
    }

    #[test]
    fn positional_arity_follows_the_table() {
        let err = |name: &str, line: &str| {
            parse(command(name), &argv(line))
                .err()
                .expect("rejected")
                .msg
        };
        assert_eq!(err("record", "a.mc b.mc"), "unexpected argument `b.mc`");
        assert_eq!(err("workloads", "extra"), "unexpected argument `extra`");
        assert_eq!(err("replay", "--top 3"), "replay needs a trace file");
        let p = parse(command("profile merge"), &argv("a b c -o m")).expect("valid");
        assert_eq!(p.operands(), ["a", "b", "c"]);
    }
}
