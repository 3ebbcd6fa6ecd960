package main

// Example runs the directory demo and holds it to its output: the row counts
// of the Boston and good-customer windows before and after the editor's Save,
// how many windows the window manager refreshed for that one write, and the
// composite screen of all three windows. A change to propagation or paging
// that changes what a window shows fails here.
func Example() {
	main()
	// Output:
	// before: 20 Boston customers, 153 good customers
	// editor status after saving: 1 row(s) saved
	// after:  20 Boston customers, 154 good customers
	// windows refreshed by propagation: 2 (across 1 write notifications)
	//
	// + Customer [BROWSE] --------------------+ Good Customers [BROWSE] ---------------------------------------------------+
	// |                                       |    id  6                                                                   |
	// |   Number  1                           |  name  Fay Gray                                                            |
	// |     Name  Dee Stone                   |  city  Boston                                                              |
	// |     City  Boston                      |credit  2000                                                                |
	// |   Credit  1803.7                      |                                                                            |
	// |    Since  1976-01-12                  |                                                                            |
	// |                                       |                                                                            |
	// |                                       |                                                                            |
	// | + Orders -----------------------------|                                                                            |
	// | |id     + Customer [BROWSE] -------------------------------------------------------+                               |
	// | |263    |                                                                          |                               |
	// | |369    |   Number  6                                                              |                               |
	// | |387    |     Name  Fay Gray                                                       |                               |
	// | |450    |     City  Boston                                                         |                               |
	// | |606    |   Credit  2000                                                           |                               |
	// | |652    |    Since  1971-07-07                                                     |                               |
	// | +-------|                                                                          |                               |
	// |         |                                                                          |                               |
	// | row 1 of| + Orders -----------------------------------+                            |                               |
	//           | |id       customer placed       total       |                            |
	// +---------| |228      6        1983-08-02   399.17      |                            |-------------------------------+
	//           | |393      6        1983-07-15   843.25      |                            |
	//           | |541      6        1983-02-08   49.5        |                            |
	//           | |591      6        1983-11-08   617.24      |                            |
	//           | |687      6        1983-12-28   660.02      |                            |
	//           | |844      6        1983-04-23   702.64      |                            |
	//           | +-------------------------------------------+                            |
	//           |                                                                          |
	//           | row 1 of 1                                                               |
	//            1 row(s) saved
	//           +--------------------------------------------------------------------------+
	//  windows: customer_form good_customer_form [customer_form]   F8 next window  F10 close
	//
}
