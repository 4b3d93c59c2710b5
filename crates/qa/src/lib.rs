//! Natural-language Q&A over the benchmark knowledge base.
//!
//! Reproduces the workflow of Figure 3 (paper §II-D): the user asks a
//! natural-language question; it is compiled to SQL (*NL2SQL*), the SQL is
//! *verified* against the catalog before execution (*Retrieval*), the rows
//! are turned into a natural-language answer (*Generation*), and the
//! response carries charts, the SQL text, and the raw result table
//! (*Post-Processing* / *Output*, Figure 5 labels 2–5).
//!
//! The paper uses a hosted LLM for NL2SQL and answer generation. Per the
//! reproduction rules the LLM is substituted by a deterministic semantic
//! parser ([`nl2sql`]) over a domain lexicon plus template-based generation
//! ([`answer`]): the same pipeline stages, exactly reproducible, and — like
//! the paper's design — every generated statement still passes through the
//! SQL verifier rather than being trusted.
//!
//! * [`intent`] — the typed meaning representation of a question.
//! * [`nl2sql`] — lexicon/pattern semantic parsing and SQL generation.
//! * [`answer`] — natural-language rendering of query results.
//! * [`charts`] — chart payloads (bar/line/pie) with ASCII rendering and a
//!   JSON serialization for frontends.
//! * [`session`] — multi-turn sessions with history-based slot carry-over
//!   ("what about RMSE?").

#![forbid(unsafe_code)]

pub mod answer;
pub mod charts;
pub mod error;
pub mod intent;
pub mod nl2sql;
pub mod session;

pub use error::QaError;
pub use intent::{HorizonClass, Intent, IntentKind};
pub use session::{QaResponse, QaSession};

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, QaError>;
