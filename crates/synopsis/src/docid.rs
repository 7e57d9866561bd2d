//! Document identifiers, and [`DocSet`], the sorted id list the Sets and
//! Hashes values are built on.

use std::fmt;

/// Identifier of a document in the observed stream.
///
/// Documents are identified by their position in the stream (0-based). The
/// identifier is what matching sets store, what the reservoir samples, and
/// what the distinct-sampling hash function is applied to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DocId(pub u64);

impl DocId {
    /// The raw stream position.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for DocId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "doc{}", self.0)
    }
}

impl From<u64> for DocId {
    fn from(v: u64) -> Self {
        DocId(v)
    }
}

/// An ascending, duplicate-free list of document ids: what a Sets value
/// and a distinct sample store. `∪` and `∩` are single merges of two lists.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DocSet(Vec<DocId>);

impl DocSet {
    /// Number of ids.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the list holds no id.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The ids, ascending.
    pub fn iter(&self) -> impl Iterator<Item = DocId> + '_ {
        self.0.iter().copied()
    }

    /// Insert `doc`, once.
    pub(crate) fn insert(&mut self, doc: DocId) {
        if let Err(at) = self.0.binary_search(&doc) {
            self.0.insert(at, doc);
        }
    }

    /// Remove `doc`, if present.
    pub(crate) fn remove(&mut self, doc: DocId) {
        if let Ok(at) = self.0.binary_search(&doc) {
            self.0.remove(at);
        }
    }

    /// Keep only the ids `keep` accepts, releasing the freed room.
    pub(crate) fn retain(&mut self, keep: impl FnMut(&DocId) -> bool) {
        self.0.retain(keep);
        self.0.shrink_to_fit();
    }

    /// The union, at its final size: an id in both lists is kept, an id in
    /// one only where that list's `keep` holds.
    pub(crate) fn union(
        &self,
        other: &DocSet,
        keep_a: impl Fn(DocId) -> bool,
        keep_b: impl Fn(DocId) -> bool,
    ) -> DocSet {
        let (a, b) = (&self.0, &other.0);
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while let (Some(&x), Some(&y)) = (a.get(i), b.get(j)) {
            if x == y || (x < y && keep_a(x)) || (y < x && keep_b(y)) {
                out.push(x.min(y));
            }
            i += usize::from(x <= y);
            j += usize::from(y <= x);
        }
        out.extend(a[i..].iter().copied().filter(|&x| keep_a(x)));
        out.extend(b[j..].iter().copied().filter(|&y| keep_b(y)));
        out.shrink_to_fit();
        DocSet(out)
    }

    /// The intersection, at its final size.
    pub(crate) fn intersection(&self, other: &DocSet) -> DocSet {
        let mut out = Vec::with_capacity(self.len().min(other.len()));
        out.extend(self.common(other));
        out.shrink_to_fit();
        DocSet(out)
    }

    /// The ids both lists hold, in one merge.
    pub(crate) fn common<'a>(&'a self, other: &'a DocSet) -> impl Iterator<Item = DocId> + 'a {
        let mut b = other.0.iter().peekable();
        self.iter().filter(move |&x| {
            while b.next_if(|&&y| y < x).is_some() {}
            b.next_if_eq(&&x).is_some()
        })
    }
}

impl FromIterator<DocId> for DocSet {
    /// Collect ids in any order, each once.
    fn from_iter<I: IntoIterator<Item = DocId>>(ids: I) -> Self {
        let mut ids: Vec<DocId> = ids.into_iter().collect();
        ids.sort_unstable();
        ids.dedup();
        DocSet(ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let id = DocId::from(17u64);
        assert_eq!(id.as_u64(), 17);
        assert_eq!(id.to_string(), "doc17");
        assert_eq!(id, DocId(17));
    }

    #[test]
    fn ordering_follows_stream_position() {
        assert!(DocId(3) < DocId(10));
    }
}
