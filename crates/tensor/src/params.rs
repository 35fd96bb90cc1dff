//! Parameter storage that outlives individual tapes.

use fia_linalg::Matrix;

/// Handle to a parameter inside a [`Params`] store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// Raw index (stable for the lifetime of the store).
    pub fn index(&self) -> usize {
        self.0
    }
}

/// A flat store of trainable parameter matrices.
///
/// Parameters persist here across optimization steps and are bound onto
/// the tape each step with [`crate::Tape::param`]. Optimizers mutate the
/// store in place via [`Params::get_mut`].
#[derive(Debug, Clone, Default)]
pub struct Params {
    entries: Vec<Matrix>,
}

impl Params {
    /// Creates an empty store.
    pub fn new() -> Self {
        Params {
            entries: Vec::new(),
        }
    }

    /// Inserts a parameter matrix, returning its handle.
    pub fn insert(&mut self, value: Matrix) -> ParamId {
        self.entries.push(value);
        ParamId(self.entries.len() - 1)
    }

    /// Immutable access to a parameter.
    pub fn get(&self, id: ParamId) -> &Matrix {
        &self.entries[id.0]
    }

    /// Mutable access to a parameter (used by optimizers).
    pub fn get_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.entries[id.0]
    }

    /// Number of parameter matrices.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total scalar count across all parameters.
    pub fn scalar_count(&self) -> usize {
        self.entries.iter().map(|m| m.as_slice().len()).sum()
    }

    /// Iterates over all `(id, matrix)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Matrix)> {
        self.entries
            .iter()
            .enumerate()
            .map(|(i, m)| (ParamId(i), m))
    }

    /// All parameter ids in insertion order.
    pub fn ids(&self) -> Vec<ParamId> {
        (0..self.entries.len()).map(ParamId).collect()
    }
}

/// A kept gradient buffer and whether it holds a gradient from the
/// current pass. A stale buffer is reused, never read.
#[derive(Debug, Clone, Default)]
pub(crate) struct GradSlot {
    pub(crate) buf: Matrix,
    pub(crate) live: bool,
}

/// Parameter gradients, one per [`ParamId`]: every binding of a
/// parameter on a tape adds into the same buffer, so a parameter bound
/// twice gets one summed gradient and one optimizer update.
///
/// The store is keyed by the id's index alone, so the parameters one
/// tape binds must all come from one [`Params`] store: equal ids from
/// two stores would share one buffer.
///
/// [`crate::Tape::backward`] fills the tape's store in place and
/// [`crate::Optimizer::step`] reads it in place; [`crate::Tape::reset`]
/// marks every gradient stale and keeps the buffers for the next step.
#[derive(Debug, Clone, Default)]
pub struct ParamGrads {
    slots: Vec<GradSlot>,
}

impl ParamGrads {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The gradient of `id`, if one reached it this pass.
    pub fn get(&self, id: ParamId) -> Option<&Matrix> {
        self.slots.get(id.0).filter(|s| s.live).map(|s| &s.buf)
    }

    /// `(id, gradient)` for every parameter that received a gradient,
    /// in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Matrix)> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.live)
            .map(|(i, s)| (ParamId(i), &s.buf))
    }

    /// Number of parameters that received a gradient.
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|s| s.live).count()
    }

    /// `true` when no parameter received a gradient.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The slot of `id`, created stale on first use.
    pub(crate) fn slot(&mut self, id: ParamId) -> &mut GradSlot {
        if self.slots.len() <= id.0 {
            self.slots.resize_with(id.0 + 1, GradSlot::default);
        }
        &mut self.slots[id.0]
    }

    /// Marks every gradient stale, keeping the buffers.
    pub(crate) fn clear(&mut self) {
        for s in &mut self.slots {
            s.live = false;
        }
    }
}

#[cfg(test)]
impl ParamGrads {
    /// A store holding exactly `pairs`, whose ids must be distinct: how
    /// optimizer tests hand over a gradient without a tape.
    pub(crate) fn from_pairs(pairs: impl IntoIterator<Item = (ParamId, Matrix)>) -> Self {
        let mut grads = ParamGrads::new();
        for (id, g) in pairs {
            let slot = grads.slot(id);
            assert!(!slot.live, "from_pairs: repeated {id:?}");
            *slot = GradSlot { buf: g, live: true };
        }
        grads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut p = Params::new();
        let a = p.insert(Matrix::filled(2, 3, 1.5));
        let b = p.insert(Matrix::identity(2));
        assert_eq!(p.len(), 2);
        assert_eq!(p.get(a).shape(), (2, 3));
        assert_eq!(p.get(b).shape(), (2, 2));
        assert_eq!(p.scalar_count(), 10);
    }

    #[test]
    fn get_mut_updates() {
        let mut p = Params::new();
        let a = p.insert(Matrix::zeros(1, 1));
        p.get_mut(a)[(0, 0)] = 42.0;
        assert_eq!(p.get(a)[(0, 0)], 42.0);
    }

    #[test]
    fn ids_in_insertion_order() {
        let mut p = Params::new();
        let a = p.insert(Matrix::zeros(1, 1));
        let b = p.insert(Matrix::zeros(1, 1));
        assert_eq!(p.ids(), vec![a, b]);
        assert!(!p.is_empty());
    }
}
