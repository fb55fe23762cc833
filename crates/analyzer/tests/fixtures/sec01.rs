// SEC01 fixture: derives on secret vs. non-secret types.

// POSITIVE: registry type deriving Debug and PartialEq.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommutativeKey {
    e: u64,
    e_inv: u64,
}

// POSITIVE: registry type deriving Debug through a multi-attr item.
#[derive(Debug)]
#[repr(C)]
pub struct PlanCachePair {
    e: u64,
}

// NEGATIVE: public wire type may derive freely.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OtQuery {
    pub pk0: u64,
}

// NEGATIVE: registry type with only safe derives.
#[derive(Clone)]
pub struct OtReceiverState {
    k: u64,
}

// NEGATIVE: mention inside a comment — #[derive(Debug)] on CommutativeKey —
// and inside a string must not fire.
pub const DOC: &str = "#[derive(Debug)] pub struct DirectionKeys {}";
