let station ?on_phase ~eps () = Notification.station ?on_phase (Lesk.protocol ~eps ())
let pool ?on_phase ~eps () = Notification.pool ?on_phase (Lesk.protocol ~eps ())
