//! Dynamically-typed values crossing operation boundaries.
//!
//! Operations are declared with static `Arg`/`Ret` types, but the handling
//! machinery is necessarily dynamic (a handler stores clauses for several
//! operations of one effect). [`Value`] is a cheap, clonable, immutable
//! `Rc<dyn Any>` box; the typed wrappers in [`crate::handler`] downcast at
//! the edges, so user code never sees `Value` unless it opts into the raw
//! API.

use std::any::Any;
use std::fmt;
use std::rc::Rc;

/// An immutable dynamically-typed value.
#[derive(Clone)]
pub struct Value(Rc<dyn Any>);

impl Value {
    /// Boxes a value.
    pub fn new<T: 'static>(t: T) -> Value {
        Value(Rc::new(t))
    }

    /// Downcasts to `T`, cloning out of the shared box.
    ///
    /// # Panics
    ///
    /// Panics with the expected type name if the dynamic type is not `T`;
    /// this indicates a mis-declared operation (`Arg`/`Ret` mismatch),
    /// which is a programming error.
    pub fn get<T: Clone + 'static>(&self) -> T {
        self.try_get::<T>().unwrap_or_else(|| mismatch::<T>())
    }

    /// Downcasts to `T`, moving the value out when this is the only
    /// reference to the box and cloning it only when the box is shared.
    ///
    /// # Panics
    ///
    /// As [`Value::get`], on a dynamic type other than `T`.
    pub fn take<T: Clone + 'static>(self) -> T {
        match self.0.downcast::<T>() {
            Ok(rc) => Rc::try_unwrap(rc).unwrap_or_else(|rc| (*rc).clone()),
            Err(_) => mismatch::<T>(),
        }
    }

    /// Downcasts to `T`, returning `None` on mismatch.
    pub fn try_get<T: Clone + 'static>(&self) -> Option<T> {
        self.0.downcast_ref::<T>().cloned()
    }

    /// Whether the boxed value has dynamic type `T`.
    pub fn is<T: 'static>(&self) -> bool {
        self.0.is::<T>()
    }
}

/// The panic of a failed typed downcast: a mis-declared operation.
fn mismatch<T>() -> ! {
    panic!(
        "value type mismatch: expected {} — check the operation's Arg/Ret declaration",
        std::any::type_name::<T>()
    )
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Value(<{:?}>)", self.0.type_id())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let v = Value::new(42_i32);
        assert_eq!(v.get::<i32>(), 42);
        assert!(v.is::<i32>());
        assert!(!v.is::<u8>());
    }

    #[test]
    fn try_get_mismatch_is_none() {
        let v = Value::new("hi".to_owned());
        assert_eq!(v.try_get::<i32>(), None);
        assert_eq!(v.try_get::<String>().as_deref(), Some("hi"));
    }

    #[test]
    #[should_panic(expected = "value type mismatch")]
    fn get_mismatch_panics() {
        Value::new(1_u8).get::<u16>();
    }

    #[test]
    #[should_panic(expected = "value type mismatch")]
    fn take_mismatch_panics() {
        Value::new(1_u8).take::<u16>();
    }

    #[test]
    fn clone_shares() {
        let v = Value::new(vec![1, 2, 3]);
        let w = v.clone();
        assert_eq!(w.get::<Vec<i32>>(), vec![1, 2, 3]);
    }
}
