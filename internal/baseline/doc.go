// Package baseline implements the comparator the forms interface is measured
// against: a hand-written application that performs the same business
// operations by issuing SQL directly, the way a 1983 programmer would have
// embedded queries in an application program (and the way an expert user
// would have typed them at the SQL shell).
//
// The comparator and the comparisons are test code: the package builds
// nothing else. Its tests reproduce the paper's two comparisons:
//
//   - execution cost (E1, BenchmarkFormVsHandCoded and
//     TestFormOverheadIsBounded): what the form layer adds on top of the
//     identical database work;
//   - interface economy (E8, TestFormsNeedFewerKeystrokes): how many
//     keystrokes the business task costs when the user must type SQL instead
//     of filling in a form.
package baseline
