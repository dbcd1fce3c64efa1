//! Typed communicator errors.
//!
//! The send/recv hot path returns [`CommError`] through the `try_*`
//! variants ([`crate::Comm::try_send`], [`crate::Comm::try_recv`],
//! [`crate::Comm::try_wait`]); transient transport faults are consumed
//! internally by the retry/backoff policy ([`crate::config::RetryPolicy`])
//! and only surface here once retries are exhausted. The panicking
//! wrappers (`send`/`recv`/`wait`) keep the PR-4 verifier convention for
//! terminal errors: one rank panicking tears down the event fabric, every
//! peer's blocking call fails, and the whole world aborts together
//! through `std::thread::scope` join.

use std::fmt;

use dlsr_net::TransportError;

/// A communicator operation failed.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CommError {
    /// A peer rank outside `0..size` was addressed.
    InvalidRank {
        /// The offending rank argument.
        rank: usize,
        /// World size.
        size: usize,
    },
    /// A single transmission attempt failed (retried internally; exposed
    /// for diagnostics and tests).
    Transport(TransportError),
    /// Every transmission attempt of one message failed; the link is
    /// treated as down. Terminal.
    RetriesExhausted {
        /// Sending rank.
        src: usize,
        /// Destination rank.
        dst: usize,
        /// How many attempts were made.
        attempts: u32,
        /// The last attempt's failure.
        last: TransportError,
    },
    /// The event fabric was torn down — some rank already aborted.
    /// Terminal.
    WorldTornDown {
        /// The rank observing the teardown.
        rank: usize,
    },
    /// The CUDA IPC handshake failed even though path selection chose the
    /// peer-to-peer path. Terminal (a config/topology bug, not a fault).
    Ipc(String),
    /// Sending this message would push the world's in-flight host bytes
    /// past the configured mailbox budget
    /// ([`crate::MpiConfig::sim_mailbox_budget`]) — the fabric refuses to
    /// queue it rather than grow without bound. Terminal.
    MailboxBudget {
        /// The sending rank.
        rank: usize,
        /// In-flight host bytes the send would have reached.
        in_flight: u64,
        /// The configured budget.
        budget: u64,
    },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::InvalidRank { rank, size } => {
                write!(f, "rank {rank} out of range for a {size}-rank world")
            }
            CommError::Transport(e) => write!(f, "transport fault: {e}"),
            CommError::RetriesExhausted {
                src,
                dst,
                attempts,
                last,
            } => write!(
                f,
                "link {src} -> {dst} down: {attempts} transmission attempts failed (last: {last})"
            ),
            CommError::WorldTornDown { rank } => {
                write!(f, "rank {rank}: peers exited, the world is torn down")
            }
            CommError::Ipc(msg) => write!(f, "CUDA IPC handshake failed: {msg}"),
            CommError::MailboxBudget {
                rank,
                in_flight,
                budget,
            } => write!(
                f,
                "rank {rank}: send would put {in_flight} in-flight host bytes past the \
                 {budget}-byte mailbox budget (raise MpiConfig::sim_mailbox_budget or drain \
                 receives sooner)"
            ),
        }
    }
}

impl std::error::Error for CommError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CommError::Transport(e) | CommError::RetriesExhausted { last: e, .. } => Some(e),
            _ => None,
        }
    }
}

impl From<TransportError> for CommError {
    fn from(e: TransportError) -> Self {
        CommError::Transport(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminal_errors_name_the_link_and_cause() {
        let e = CommError::RetriesExhausted {
            src: 1,
            dst: 6,
            attempts: 5,
            last: TransportError::Lost {
                src: 1,
                dst: 6,
                attempt: 5,
            },
        };
        let msg = e.to_string();
        assert!(msg.contains("1 -> 6") && msg.contains("5 transmission attempts"));
        assert!(std::error::Error::source(&e).is_some());
        let w: CommError = TransportError::Corrupted {
            src: 0,
            dst: 1,
            attempt: 2,
        }
        .into();
        assert!(matches!(w, CommError::Transport(_)));
    }
}
