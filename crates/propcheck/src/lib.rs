//! Deterministic property sampler with the slice of the `proptest` API
//! the workspace's property suites use: `proptest!`, `prop_assert*` /
//! `prop_assume!`, `prop_oneof!`, `Just`, `any::<bool>()`, range and tuple
//! strategies, `prop::collection::vec` and `prop::array::uniform4`.
//!
//! Cases come from a fixed per-test xorshift seed (FNV-1a of the test
//! name), so a run is reproducible without a regressions file. Every
//! random draw a strategy makes is recorded on a tape; when a case
//! fails, the runner replays generation from edited tapes, binary
//! searching each draw towards zero while the property keeps failing.
//! Because a draw is an offset into a range, a collection length or an
//! arm index, that shrinks integers and floats towards the start of
//! their range, collections towards their shortest length and
//! `prop_oneof!` towards its first arm — through `prop_map` and tuples,
//! with no per-strategy shrinking code. The failure report shows the
//! minimal inputs found.

pub mod test_runner {
    use std::fmt;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Most replays one failing case may spend on shrinking.
    const SHRINK_BUDGET: u32 = 2048;

    /// The source of every random draw: a xorshift64* generator whose
    /// draws are recorded, or a replay of an edited recording.
    pub struct Source {
        state: u64,
        replay: Option<Vec<u64>>,
        tape: Vec<u64>,
    }

    impl Source {
        fn from_name(name: &str) -> Source {
            // FNV-1a over the test name; fixed basis keeps runs stable.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            Source {
                state: h | 1,
                replay: None,
                tape: Vec::new(),
            }
        }

        /// One recorded draw in `[0, max]`: `fresh` shapes a raw 64-bit
        /// sample; a replay returns the taped value instead (clamped,
        /// and 0 once the tape runs out).
        fn draw(&mut self, max: u64, fresh: impl FnOnce(u64) -> u64) -> u64 {
            let value = match &self.replay {
                Some(tape) => tape.get(self.tape.len()).copied().unwrap_or(0).min(max),
                None => {
                    let mut x = self.state;
                    x ^= x >> 12;
                    x ^= x << 25;
                    x ^= x >> 27;
                    self.state = x;
                    fresh(x.wrapping_mul(0x2545_f491_4f6c_dd1d))
                }
            };
            self.tape.push(value);
            value
        }

        /// Uniform in `[0, n)`; `n == 0` is treated as 1.
        pub fn below(&mut self, n: u64) -> u64 {
            let n = n.max(1);
            self.draw(n - 1, |x| x % n)
        }

        /// Uniform in `[0, 1)` with 53 bits of precision.
        pub fn next_f64(&mut self) -> f64 {
            self.draw((1 << 53) - 1, |x| x >> 11) as f64 / (1u64 << 53) as f64
        }

        /// A fair coin.
        pub fn next_bool(&mut self) -> bool {
            self.draw(1, |x| x & 1) == 1
        }
    }

    /// Only the `cases` knob is honoured.
    pub struct ProptestConfig {
        pub cases: u32,
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> ProptestConfig {
            ProptestConfig { cases: 32 }
        }
    }

    /// A failing case: its inputs (`name = value; ...`), the panic
    /// message, and where the runner found it.
    #[derive(Debug)]
    pub struct Failure {
        pub inputs: String,
        pub message: String,
        /// 0-based index of the failing case.
        pub case: u32,
        /// Shrinking replays that still failed (0 = reported as drawn).
        pub shrinks: u32,
    }

    impl fmt::Display for Failure {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(
                f,
                "property failed at case {} (shrunk {} times)\nminimal failing input: {}\n{}",
                self.case, self.shrinks, self.inputs, self.message
            )
        }
    }

    /// Run one case body, turning a panic into a [`Failure`].
    pub fn guard(inputs: String, body: impl FnOnce()) -> Result<(), Failure> {
        catch_unwind(AssertUnwindSafe(body)).map_err(|panic| {
            let message = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic>")
                .to_owned();
            Failure {
                inputs,
                message,
                case: 0,
                shrinks: 0,
            }
        })
    }

    /// Draw `cases` cases for the property `name`; on the first failure,
    /// shrink it and return the minimal failure found.
    pub fn check(
        name: &str,
        cases: u32,
        case: impl Fn(&mut Source) -> Result<(), Failure>,
    ) -> Option<Failure> {
        let mut source = Source::from_name(name);
        for index in 0..cases {
            source.tape.clear();
            if let Err(failure) = case(&mut source) {
                let mut minimal = shrink(&case, std::mem::take(&mut source.tape), failure);
                minimal.case = index;
                return Some(minimal);
            }
        }
        None
    }

    /// Binary search every taped draw towards zero, keeping an edit only
    /// while the replayed case still fails; repeat until a whole pass
    /// changes nothing or the budget is spent.
    fn shrink(
        case: &impl Fn(&mut Source) -> Result<(), Failure>,
        mut tape: Vec<u64>,
        mut failure: Failure,
    ) -> Failure {
        let mut budget = SHRINK_BUDGET;
        let mut shrinks = 0;
        loop {
            let mut improved = false;
            let mut i = 0;
            while i < tape.len() {
                let (mut lo, mut hi) = (0, tape[i]);
                while lo < hi && budget > 0 {
                    budget -= 1;
                    let mid = lo + (hi - lo) / 2;
                    let mut edited = tape.clone();
                    edited[i] = mid;
                    let mut replay = Source {
                        state: 0,
                        replay: Some(edited),
                        tape: Vec::new(),
                    };
                    match case(&mut replay) {
                        // The draws before `i` are unchanged, so the
                        // replay consumed at least `i + 1` of them.
                        Err(smaller) if replay.tape.len() > i => {
                            tape = replay.tape;
                            failure = smaller;
                            shrinks += 1;
                            improved = true;
                            hi = mid;
                        }
                        _ => lo = mid + 1,
                    }
                }
                i += 1;
            }
            if !improved || budget == 0 {
                failure.shrinks = shrinks;
                return failure;
            }
        }
    }
}

pub mod strategy {
    use crate::test_runner::Source;
    use std::ops::Range;

    /// Value generator. There is no value tree: `generate` draws a
    /// sample from the [`Source`], and shrinking edits the source's
    /// tape (see the crate docs).
    pub trait Strategy {
        type Value;
        fn generate(&self, src: &mut Source) -> Self::Value;

        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, f }
        }
    }

    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn generate(&self, src: &mut Source) -> U {
            (self.f)(self.inner.generate(src))
        }
    }

    /// `prop_oneof!` support: pick one arm uniformly.
    pub struct Union<T>(Vec<Box<dyn Strategy<Value = T>>>);

    impl<T> Union<T> {
        pub fn new(arms: Vec<Box<dyn Strategy<Value = T>>>) -> Union<T> {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union(arms)
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, src: &mut Source) -> T {
            let i = src.below(self.0.len() as u64) as usize;
            self.0[i].generate(src)
        }
    }

    #[derive(Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _src: &mut Source) -> T {
            self.0.clone()
        }
    }

    impl Strategy for Range<f64> {
        type Value = f64;
        fn generate(&self, src: &mut Source) -> f64 {
            self.start + src.next_f64() * (self.end - self.start)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, src: &mut Source) -> $t {
                    let span = (self.end as i128 - self.start as i128).max(1) as u64;
                    (self.start as i128 + src.below(span) as i128) as $t
                }
            }
        )*};
    }

    int_range_strategy!(usize, u8, u16, u32, u64, i8, i16, i32, i64);

    macro_rules! tuple_strategy {
        ($($s:ident.$idx:tt),+) => {
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, src: &mut Source) -> Self::Value {
                    ($(self.$idx.generate(src),)+)
                }
            }
        };
    }

    tuple_strategy!(A.0);
    tuple_strategy!(A.0, B.1);
    tuple_strategy!(A.0, B.1, C.2);
    tuple_strategy!(A.0, B.1, C.2, D.3);
    tuple_strategy!(A.0, B.1, C.2, D.3, E.4);
    tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5);
    tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5, G.6);
    tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7);
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::Source;
    use std::marker::PhantomData;

    /// `any::<bool>()`: a fair coin (the only type the suites ask for).
    pub struct Any<T>(PhantomData<T>);

    impl Strategy for Any<bool> {
        type Value = bool;
        fn generate(&self, src: &mut Source) -> bool {
            src.next_bool()
        }
    }

    pub fn any<T>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::Source;
    use std::ops::Range;

    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, src: &mut Source) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start).max(1) as u64;
            let len = self.size.start + src.below(span) as usize;
            (0..len).map(|_| self.element.generate(src)).collect()
        }
    }

    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }
}

pub mod array {
    use crate::strategy::Strategy;
    use crate::test_runner::Source;

    pub struct Uniform4<S>(S);

    impl<S: Strategy> Strategy for Uniform4<S> {
        type Value = [S::Value; 4];
        fn generate(&self, src: &mut Source) -> [S::Value; 4] {
            std::array::from_fn(|_| self.0.generate(src))
        }
    }

    pub fn uniform4<S: Strategy>(element: S) -> Uniform4<S> {
        Uniform4(element)
    }
}

pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest};

    pub mod prop {
        pub use crate::array;
        pub use crate::collection;
    }
}

/// Run each property as a plain `#[test]`: draw `cases` samples from the
/// strategies and execute the body; a failing case is shrunk and
/// reported with its minimal inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@cfg ($cfg) $($rest)*);
    };
    (@cfg ($cfg:expr) $($(#[$attr:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$attr])*
            fn $name() {
                let cfg: $crate::test_runner::ProptestConfig = $cfg;
                let failure = $crate::test_runner::check(stringify!($name), cfg.cases, |src| {
                    $(let $arg = $crate::strategy::Strategy::generate(&$strat, src);)+
                    let inputs = [$(format!("{} = {:?}", stringify!($arg), &$arg)),+].join("; ");
                    $crate::test_runner::guard(inputs, move || $body)
                });
                if let Some(failure) = failure {
                    panic!("{}: {failure}", stringify!($name));
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@cfg ($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Skip the current case when its precondition does not hold (use at
/// the top level of a property body).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return;
        }
    };
}

#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![$(Box::new($arm) as Box<dyn $crate::strategy::Strategy<Value = _>>),+])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::{check, guard};

    /// The self-test the shrinker is specified by: `x < 1000` over
    /// `0..1_000_000` must report exactly the boundary.
    #[test]
    fn a_failing_range_property_shrinks_to_its_boundary() {
        let failure = check("boundary", 64, |src| {
            let x = (0u32..1_000_000).generate(src);
            guard(format!("x = {x:?}"), move || prop_assert!(x < 1000))
        })
        .expect("almost every draw is >= 1000");
        assert_eq!(failure.inputs, "x = 1000");
        assert!(failure.shrinks > 0);
        assert!(failure
            .to_string()
            .contains("minimal failing input: x = 1000\n"));
    }

    #[test]
    fn collections_floats_and_mapped_values_shrink_too() {
        let failure = check("collections", 64, |src| {
            let xs = prop::collection::vec(5.0f64..10.0, 0..40).generate(src);
            guard(format!("{xs:?}"), move || prop_assert!(xs.len() < 3))
        })
        .expect("most lengths are >= 3");
        assert_eq!(failure.inputs, "[5.0, 5.0, 5.0]");

        let failure = check("mapped", 64, |src| {
            let even = (0u64..10_000).prop_map(|n| n * 2).generate(src);
            guard(format!("{even}"), move || prop_assert!(even < 501))
        })
        .expect("most draws are >= 251");
        assert_eq!(failure.inputs, "502");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn passing_properties_pass_and_assume_skips(
            n in 1usize..50,
            coin in any::<bool>(),
            pick in prop_oneof![Just(1u8), Just(2u8)],
        ) {
            prop_assume!(n != 7);
            prop_assert!(n != 7 && (1..50).contains(&n));
            prop_assert_eq!(coin as u8 + pick, pick + coin as u8);
        }

        #[test]
        #[should_panic(expected = "minimal failing input: a = 10; b = 0\n")]
        fn the_macro_reports_minimal_inputs(a in 0i32..100, b in 0i32..100) {
            prop_assert!(a < 10, "a too big: {} (b = {})", a, b);
        }
    }
}
