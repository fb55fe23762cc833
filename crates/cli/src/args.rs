//! Hand-rolled argument parsing (the workspace deliberately avoids
//! dependencies beyond its vetted list).

use std::fmt;

use minshare::prelude::ProtocolKind;

/// Which protocol to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// §3 intersection.
    Intersect,
    /// §5.1 intersection size.
    IntersectSize,
    /// §4 equijoin.
    Join,
    /// §5.2 equijoin size.
    JoinSize,
    /// Private intersection-sum (the §7 aggregation extension).
    Sum,
}

impl Command {
    fn parse(s: &str) -> Option<Command> {
        match s {
            "intersect" => Some(Command::Intersect),
            "intersect-size" => Some(Command::IntersectSize),
            "join" => Some(Command::Join),
            "join-size" => Some(Command::JoinSize),
            "sum" => Some(Command::Sum),
            _ => None,
        }
    }

    /// The §3–§5 protocol this verb runs; `None` for `sum`, the §7
    /// extension, which runs its own code.
    pub fn protocol(self) -> Option<ProtocolKind> {
        match self {
            Command::Intersect => Some(ProtocolKind::Intersection),
            Command::IntersectSize => Some(ProtocolKind::IntersectionSize),
            Command::Join => Some(ProtocolKind::Equijoin),
            Command::JoinSize => Some(ProtocolKind::EquijoinSize),
            Command::Sum => None,
        }
    }
}

/// Which party this process plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The paper's `S`.
    Sender,
    /// The paper's `R`.
    Receiver,
}

/// How the TCP connection is established.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// Bind and wait for the peer.
    Listen(String),
    /// Connect to a waiting peer.
    Connect(String),
}

/// Fully parsed invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// The protocol to run.
    pub command: Command,
    /// Listen or connect.
    pub endpoint: Endpoint,
    /// Sender or receiver role.
    pub side: Side,
    /// Input file: `value[<TAB>payload]` per line, the payload being
    /// `ext(v)` for a `join` sender and the weight for a `sum` sender.
    pub values_path: String,
    /// Safe-prime group size in bits.
    pub group_bits: u64,
    /// Paillier key size for `sum` (sender side generates).
    pub key_bits: u64,
    /// Wrap the connection in the authenticated-encryption channel.
    pub secure: bool,
    /// RNG seed; `None` = OS entropy.
    pub seed: Option<u64>,
    /// Write a JSON-lines trace of the run to this file, followed by a
    /// final §6.1 reconciliation line.
    pub trace_path: Option<String>,
    /// Bucket count of the engine; `1` sends no hello. Receiver-side:
    /// the receiver announces the count and the sender adopts it.
    pub shards: u32,
    /// In-memory byte budget of the engine's spill sorter.
    pub mem_budget: usize,
    /// Directory for spill run files (default: the OS temp dir).
    pub spill_dir: Option<String>,
}

/// A parse failure with a usage hint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgsError(pub String);

impl fmt::Display for ArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.0)?;
        write!(f, "{USAGE}")
    }
}

/// Usage text.
pub const USAGE: &str = "\
usage: minshare <command> (--listen ADDR | --connect ADDR) --values FILE [options]

commands:
  intersect        private set intersection (paper §3)
  intersect-size   intersection cardinality only (§5.1)
  join             equijoin with payloads (§4); sender lines: value<TAB>payload
  join-size        equijoin cardinality on multisets (§5.2)
  sum              private intersection-sum (§7 extension); sender lines: value<TAB>weight

options:
  --as sender|receiver   role override (default: --listen ⇒ sender, --connect ⇒ receiver)
  --group-bits N         safe-prime size: 768, 1024, 1536 or 2048 (default 768)
  --key-bits N           Paillier modulus bits for `sum` (default 1024)
  --secure               run inside the encrypted session channel
  --seed N               deterministic RNG seed (default: OS entropy)
  --trace FILE           write a JSON-lines event trace (counts, sizes and
                         durations only — never values or keys), ending
                         with a measured-vs-predicted cost reconciliation
  --shards B             receiver-side: split the run into B hash buckets
                         exchanged one after another (default 1 = one
                         bucket, no hello frame); the sender side adopts
                         B automatically
  --mem-budget BYTES     in-memory budget of the sort before sorted runs
                         go to disk (default 67108864)
  --spill-dir DIR        where spill runs live while in flight (default:
                         OS temp dir; files are unlinked at creation)
";

impl Args {
    /// Parses a raw argument list (without the program name).
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Args, ArgsError> {
        let mut it = raw.into_iter();
        let command = match it.next() {
            Some(c) => {
                Command::parse(&c).ok_or_else(|| ArgsError(format!("unknown command {c:?}")))?
            }
            None => return Err(ArgsError("missing command".to_string())),
        };

        let mut endpoint = None;
        let mut side = None;
        let mut values_path = None;
        let mut group_bits = 768u64;
        let mut key_bits = 1024u64;
        let mut secure = false;
        let mut seed = None;
        let mut trace_path = None;
        let mut shards = 1u32;
        let mut mem_budget = 64usize << 20;
        let mut spill_dir = None;

        let next_value =
            |it: &mut dyn Iterator<Item = String>, flag: &str| -> Result<String, ArgsError> {
                it.next()
                    .ok_or_else(|| ArgsError(format!("{flag} requires a value")))
            };

        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--listen" => endpoint = Some(Endpoint::Listen(next_value(&mut it, "--listen")?)),
                "--connect" => {
                    endpoint = Some(Endpoint::Connect(next_value(&mut it, "--connect")?))
                }
                "--values" => values_path = Some(next_value(&mut it, "--values")?),
                "--as" => {
                    side = Some(match next_value(&mut it, "--as")?.as_str() {
                        "sender" => Side::Sender,
                        "receiver" => Side::Receiver,
                        other => {
                            return Err(ArgsError(format!(
                                "--as expects sender|receiver, got {other:?}"
                            )))
                        }
                    })
                }
                "--group-bits" => {
                    group_bits = next_value(&mut it, "--group-bits")?
                        .parse()
                        .map_err(|_| ArgsError("--group-bits expects a number".to_string()))?
                }
                "--key-bits" => {
                    key_bits = next_value(&mut it, "--key-bits")?
                        .parse()
                        .map_err(|_| ArgsError("--key-bits expects a number".to_string()))?
                }
                "--secure" => secure = true,
                "--trace" => trace_path = Some(next_value(&mut it, "--trace")?),
                "--shards" => {
                    shards = next_value(&mut it, "--shards")?
                        .parse()
                        .map_err(|_| ArgsError("--shards expects a number".to_string()))?;
                    if shards == 0 {
                        return Err(ArgsError("--shards must be at least 1".to_string()));
                    }
                }
                "--mem-budget" => {
                    mem_budget = next_value(&mut it, "--mem-budget")?
                        .parse()
                        .map_err(|_| ArgsError("--mem-budget expects a byte count".to_string()))?
                }
                "--spill-dir" => spill_dir = Some(next_value(&mut it, "--spill-dir")?),
                "--seed" => {
                    seed = Some(
                        next_value(&mut it, "--seed")?
                            .parse()
                            .map_err(|_| ArgsError("--seed expects a number".to_string()))?,
                    )
                }
                other => return Err(ArgsError(format!("unknown option {other:?}"))),
            }
        }

        let endpoint =
            endpoint.ok_or_else(|| ArgsError("one of --listen/--connect is required".into()))?;
        let side = side.unwrap_or(match endpoint {
            Endpoint::Listen(_) => Side::Sender,
            Endpoint::Connect(_) => Side::Receiver,
        });
        let values_path =
            values_path.ok_or_else(|| ArgsError("--values FILE is required".into()))?;

        Ok(Args {
            command,
            endpoint,
            side,
            values_path,
            group_bits,
            key_bits,
            secure,
            seed,
            trace_path,
            shards,
            mem_budget,
            spill_dir,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, ArgsError> {
        Args::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_minimal_sender() {
        let a = parse(&["intersect", "--listen", "0.0.0.0:9000", "--values", "v.txt"]).unwrap();
        assert_eq!(a.command, Command::Intersect);
        assert_eq!(a.endpoint, Endpoint::Listen("0.0.0.0:9000".into()));
        assert_eq!(a.side, Side::Sender);
        assert_eq!(a.group_bits, 768);
        assert!(!a.secure);
    }

    #[test]
    fn connect_defaults_to_receiver() {
        let a = parse(&["join", "--connect", "h:1", "--values", "v"]).unwrap();
        assert_eq!(a.side, Side::Receiver);
        assert_eq!(a.command, Command::Join);
    }

    #[test]
    fn role_override_and_options() {
        let a = parse(&[
            "sum",
            "--listen",
            "h:1",
            "--as",
            "receiver",
            "--values",
            "v",
            "--group-bits",
            "1024",
            "--key-bits",
            "512",
            "--secure",
            "--seed",
            "7",
        ])
        .unwrap();
        assert_eq!(a.side, Side::Receiver);
        assert_eq!(a.group_bits, 1024);
        assert_eq!(a.key_bits, 512);
        assert!(a.secure);
        assert_eq!(a.seed, Some(7));
        assert_eq!(a.trace_path, None);
    }

    #[test]
    fn trace_flag_takes_a_path() {
        let a = parse(&[
            "intersect",
            "--listen",
            "h:1",
            "--values",
            "v",
            "--trace",
            "run.jsonl",
        ])
        .unwrap();
        assert_eq!(a.trace_path.as_deref(), Some("run.jsonl"));
        assert!(parse(&["intersect", "--listen", "h:1", "--values", "v", "--trace"]).is_err());
    }

    #[test]
    fn shard_flags_parse_and_default() {
        let a = parse(&["intersect", "--connect", "h:1", "--values", "v"]).unwrap();
        assert_eq!(a.shards, 1);
        assert_eq!(a.mem_budget, 64 << 20);
        assert_eq!(a.spill_dir, None);
        let a = parse(&[
            "intersect",
            "--connect",
            "h:1",
            "--values",
            "v",
            "--shards",
            "16",
            "--mem-budget",
            "1048576",
            "--spill-dir",
            "/tmp/spills",
        ])
        .unwrap();
        assert_eq!(a.shards, 16);
        assert_eq!(a.mem_budget, 1 << 20);
        assert_eq!(a.spill_dir.as_deref(), Some("/tmp/spills"));
        assert!(parse(&[
            "intersect",
            "--connect",
            "h:1",
            "--values",
            "v",
            "--shards",
            "0"
        ])
        .is_err());
        assert!(parse(&[
            "intersect",
            "--connect",
            "h:1",
            "--values",
            "v",
            "--mem-budget",
            "lots"
        ])
        .is_err());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["frobnicate"]).is_err());
        assert!(parse(&["intersect", "--values", "v"]).is_err()); // no endpoint
        assert!(parse(&["intersect", "--listen", "h:1"]).is_err()); // no values
        assert!(parse(&["intersect", "--listen"]).is_err()); // dangling flag
        assert!(parse(&[
            "intersect",
            "--listen",
            "h:1",
            "--values",
            "v",
            "--as",
            "nobody"
        ])
        .is_err());
        assert!(parse(&["intersect", "--listen", "h:1", "--values", "v", "--bogus"]).is_err());
    }
}
