let station ?on_phase ~eps () = Notification.station ?on_phase (Lesk.flat_sub ~eps ())
let pool ?on_phase ~eps () = Notification.pool ?on_phase (Lesk.flat_sub ~eps ())
