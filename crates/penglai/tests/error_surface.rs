//! The monitor's error surface, exercised from outside the crate: every
//! wrapped cause must be reachable through `std::error::Error::source()`,
//! so callers embedding the monitor behind `Box<dyn Error>` (or anyhow-
//! style reporters) see the full chain instead of a flattened string.

use std::error::Error;

use hpmp_core::{HpmpError, TableError};
use hpmp_penglai::{DomainId, MonitorError};

/// Walk the source chain, collecting each link's Display rendering.
fn chain(err: &dyn Error) -> Vec<String> {
    let mut links = vec![err.to_string()];
    let mut cursor = err.source();
    while let Some(cause) = cursor {
        links.push(cause.to_string());
        cursor = cause.source();
    }
    links
}

#[test]
fn hpmp_causes_are_chained() {
    let err = MonitorError::from(HpmpError::Locked(3));
    let source = err.source().expect("wrapped HpmpError must be the source");
    let cause = source
        .downcast_ref::<HpmpError>()
        .expect("source downcasts to the concrete HpmpError");
    assert_eq!(*cause, HpmpError::Locked(3));
    // The chain terminates: HpmpError is a leaf.
    assert!(source.source().is_none());
    assert_eq!(chain(&err).len(), 2);
}

#[test]
fn table_causes_are_chained() {
    let err = MonitorError::from(TableError::OutOfTableFrames);
    let source = err.source().expect("wrapped TableError must be the source");
    assert_eq!(
        *source
            .downcast_ref::<TableError>()
            .expect("source downcasts to the concrete TableError"),
        TableError::OutOfTableFrames
    );
    // Both renderings appear when a reporter prints the whole chain.
    let rendered = chain(&err).join(": ");
    assert!(rendered.contains("PMP-table"), "{rendered}");
}

#[test]
fn leaf_errors_have_no_source() {
    let leaves: Vec<MonitorError> = vec![
        MonitorError::OutOfPmpEntries,
        MonitorError::OutOfMemory,
        MonitorError::NotOwned,
        MonitorError::NoSuchDomain(DomainId::HOST),
        MonitorError::BadBootRam("test"),
        MonitorError::IntegrityLost(DomainId::HOST),
        MonitorError::AlreadyScheduled(DomainId::HOST),
        MonitorError::ResourceExhausted {
            retry_after_ops: 16,
        },
    ];
    for leaf in &leaves {
        assert!(leaf.source().is_none(), "{leaf} should be a leaf");
        assert_eq!(chain(leaf).len(), 1);
    }
}

#[test]
fn backpressure_advertises_its_backoff() {
    let err = MonitorError::ResourceExhausted {
        retry_after_ops: 16,
    };
    let rendered = err.to_string();
    assert!(rendered.contains("retry"), "{rendered}");
    assert!(rendered.contains("16"), "{rendered}");
}

#[test]
fn monitor_error_boxes_into_dyn_error() {
    // The embedding contract: Send + Sync + 'static, so an embedder can
    // carry the error across thread boundaries.
    fn takes_boxed(_: Box<dyn Error + Send + Sync + 'static>) {}
    takes_boxed(Box::new(MonitorError::from(HpmpError::Locked(1))));
}
