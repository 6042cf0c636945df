//! Synthetic datasets for similarity-join experiments.
//!
//! The paper evaluates on a proprietary `Customer` relation of 25,000
//! customer addresses from an operational data warehouse. This crate is the
//! documented substitution (see DESIGN.md): generators whose outputs
//! reproduce the characteristics that drive similarity-join performance —
//!
//! * Zipf-skewed token frequencies (frequent tokens like "St", "Ave" and
//!   state names blow up the element equi-join, the §4.1 pathology);
//! * controlled near-duplicate clusters produced by injecting the error
//!   classes the paper's introduction motivates (typing mistakes,
//!   convention differences, abbreviations);
//! * realistic set-size distributions (addresses of 5–10 tokens,
//!   30–50 characters).
//!
//! All generators are deterministic given a seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod address;
mod errors;
mod persons;
mod products;
mod publications;
mod tsv;
mod vocab;
mod zipf;

pub use address::{AddressCorpus, AddressCorpusConfig};
pub use errors::{ErrorModel, Perturber};
pub use persons::{PersonCorpus, PersonCorpusConfig, PersonRecord};
pub use products::{ProductCorpus, ProductCorpusConfig};
pub use publications::{PublicationCorpus, PublicationCorpusConfig};
pub use tsv::{read_first_column, read_tsv, write_field, write_tsv};
pub use zipf::Zipf;
